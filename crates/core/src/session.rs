//! Reusable inference sessions over the static memory plan.
//!
//! A [`Session`] owns every buffer an inference needs: one activation arena
//! per batch bucket, the output it hands back, and a handle to the engine's
//! thread pool. Each arena is one `Vec<f32>` holding the plan's buffers back
//! to back, at offsets that are prefix sums of the planned buffer sizes.
//! Each step runs its layer over views: its output as a writable slice of
//! the arena, its inputs as shared slices of the rest (`split_at_mut`). The
//! plan, proven sound at load, never gives a step's output the buffer of a
//! value it reads, and a view-move step's output already is its input's
//! buffer, so it does no work. Nothing is moved, zeroed or handed back at
//! run time, and steady-state single-thread runs allocate nothing.
//!
//! Layers write their whole output and read none of it first (see
//! [`Layer::run_into`]), so an arena is zeroed once, when it is allocated.
//! Debug builds fill every step's output with NaN before its layer runs, so
//! a layer that leaves part of its output unwritten shows up as NaN in every
//! debug-built test that runs a session.
//!
//! [`Network::run`](crate::Network::run) is a thin wrapper that creates a
//! throwaway session; batch workloads should hold one session (or use
//! [`Network::run_batch`](crate::Network::run_batch)) to amortise the arena.
//! Every run stamps each plan step's wall time into a preallocated vector;
//! [`Session::profile`] turns that record into per-layer rows when read.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orpheus_observe as observe;
use orpheus_ops::OpError;
use orpheus_tensor::{Tensor, TensorMut, TensorRef};
use orpheus_threads::ThreadPool;

use crate::error::EngineError;
use crate::layer::Layer;
use crate::lower::{Plan, PlanStep};
use crate::memory::MemoryStats;
use crate::plan::{elems, MemoryPlan};
use crate::profile::{LayerTiming, Profile};

/// One batch bucket's activation arena.
#[derive(Debug)]
struct Arena {
    /// The bucket's planned buffers back to back; empty until the bucket
    /// first runs, except for the base bucket.
    data: Vec<f32>,
    /// Where each slot's value lives in `data`: its buffer's offset (a
    /// prefix sum of the plan's buffer sizes) up to the value's element
    /// count at this bucket's batch.
    slots: Vec<Range<usize>>,
}

impl Arena {
    fn new(mp: &MemoryPlan, slot_dims: &[Vec<usize>]) -> Arena {
        let mut end = 0;
        let offsets: Vec<usize> = mp
            .buffer_elems
            .iter()
            .map(|&n| {
                end += n;
                end - n
            })
            .collect();
        let slots = slot_dims
            .iter()
            .zip(&mp.buffer_of)
            .map(|(dims, &buffer)| offsets[buffer]..offsets[buffer] + elems(dims))
            .collect();
        Arena {
            data: Vec::new(),
            slots,
        }
    }

    /// Allocates the planned arena, zeroed, on first use: exactly the
    /// planned size, so the resident bytes never exceed the plan. No-op
    /// (and allocation-free) once provisioned.
    fn provision(&mut self, mp: &MemoryPlan) {
        if self.data.is_empty() {
            self.data = vec![0.0; mp.buffer_elems.iter().sum()];
        }
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
/// leading dim, zero-pads the tail of a between-rung batch, and copies only
/// the real rows to the output. Each bucket keeps its own arena, so
/// steady-state runs at any single bucket stay allocation-free.
///
/// A panic that unwinds through `run` (a serving worker isolating a
/// poisoned request) leaves nothing to repair: the arena is never taken
/// apart, so the next `run` simply overwrites it.
///
/// [`Network`]: crate::Network
#[derive(Debug)]
pub struct Session {
    plan: Arc<Plan>,
    pool: ThreadPool,
    model: String,
    /// One arena per batch bucket (`plan.buckets` order).
    arenas: Vec<Arena>,
    /// Index of the bucket the last run used.
    active: usize,
    /// The last run's output rows, copied out of the arena; recycled run to
    /// run.
    output: Tensor,
    /// Storage for the input views handed to each step, sized to the
    /// widest fan-in in the plan and recycled step to step (see
    /// [`recycle`]); always empty between steps.
    fan_in: Vec<TensorRef<'static>>,
    /// Per-step reference implementations; populated only for sessions
    /// created via [`Network::reference_session`](crate::Network::reference_session),
    /// where a `Some` entry replaces the step's selected layer. Empty for
    /// ordinary sessions, so the happy path pays nothing.
    reference: Vec<Option<Box<dyn Layer>>>,
    /// Wall time of each plan step in the last run, in nanoseconds. One
    /// vector serves every bucket, because all buckets share `plan.steps`.
    step_ns: Vec<u64>,
    /// Wall time of the last run, in nanoseconds.
    run_ns: u64,
}

impl Session {
    pub(crate) fn new(
        plan: Arc<Plan>,
        pool: ThreadPool,
        model: String,
        prefer_reference: bool,
    ) -> Session {
        let mut arenas: Vec<Arena> = plan
            .buckets
            .iter()
            .map(|bucket| Arena::new(&bucket.memory, &bucket.slot_dims))
            .collect();
        // The base bucket is provisioned up front; larger buckets grow to
        // plan on first use, so an 8-bucket session does not hold eight
        // resident arenas for traffic that may never batch.
        arenas[0].provision(&plan.buckets[0].memory);
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
        let max_fan_in = plan.steps.iter().map(|s| s.inputs.len()).max();
        Session {
            arenas,
            active: 0,
            output: Tensor::default(),
            fan_in: Vec::with_capacity(max_fan_in.unwrap_or_default()),
            reference,
            step_ns: vec![0; plan.steps.len()],
            run_ns: 0,
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
    /// Tests use this to pin the runtime footprint to the static
    /// [`MemoryPlan`] prediction, bucket by bucket (run a batch first to
    /// make its bucket active).
    pub fn measured_arena_bytes(&self) -> usize {
        self.arenas[self.active].data.capacity() * std::mem::size_of::<f32>()
    }

    fn memory_plan(&self) -> &MemoryPlan {
        &self.plan.buckets[self.active].memory
    }

    /// The per-layer record of the last run: one row per plan step, view
    /// moves included, in execution order.
    ///
    /// Each row names the layer that ran (the reference twin on a
    /// [`Network::reference_session`](crate::Network::reference_session))
    /// with its op, implementation and flops, next to the step's wall time.
    /// A layer reports flops per image, so a row counts them over the
    /// active bucket's whole batch, padded rows included: the work it timed.
    /// `total` is the run's wall time, and `memory` describes the active
    /// bucket's plan. The run only stamps durations; names are copied here,
    /// when the record is read. Before the first run every duration is
    /// zero, and after a failed run the steps it did not reach keep the
    /// previous run's times.
    pub fn profile(&self) -> Profile {
        let images = self.plan.buckets[self.active].batch as u64;
        let timings = self
            .plan
            .steps
            .iter()
            .enumerate()
            .map(|(idx, step)| {
                let layer = step_layer(&self.reference, step, idx);
                LayerTiming {
                    name: layer.name().to_string(),
                    op: layer.op_name().to_string(),
                    implementation: layer.implementation().to_string(),
                    duration: Duration::from_nanos(self.step_ns[idx]),
                    flops: layer.flops() * images,
                }
            })
            .collect();
        Profile {
            timings,
            total: Duration::from_nanos(self.run_ns),
            memory: MemoryStats::from_plan(self.memory_plan()),
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
        Err(self.plan.dims_error(dims))
    }

    /// Runs one inference, returning a reference to the output tensor.
    ///
    /// The input's leading (batch) dim may be any value from 1 up to
    /// [`Session::max_batch`]: the session activates the smallest covering
    /// batch bucket, zero-pads the tail when the batch falls between
    /// buckets, and returns only the real rows.
    ///
    /// The output is the session's own copy, valid until the next `run` on
    /// this session; clone it to keep it longer.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Execution`] if the input dims match no batch
    /// bucket of the loaded model (the message lists every accepted shape),
    /// or if a layer fails and has no reference fallback.
    pub fn run(&mut self, input: &Tensor) -> Result<&Tensor, EngineError> {
        let result = self
            .select_bucket(input.dims())
            .and_then(|(bucket, batch)| {
                self.active = bucket;
                self.arenas[bucket].provision(&self.plan.buckets[bucket].memory);
                self.run_inner(input)?;
                self.copy_output(batch)
            });
        if let Err(e) = result {
            // Error paths are cold: stamp the flight recorder so a post-hoc
            // dump explains what the session was doing when it failed.
            observe::flight_record("session", "run.error", format!("{}: {e}", self.model));
            return Err(e);
        }
        Ok(&self.output)
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

    /// Copies the first `batch` of the active bucket's rows from the output
    /// slot into the session's output tensor: every row of an exact batch,
    /// the real rows of a padded one.
    fn copy_output(&mut self, batch: usize) -> Result<(), EngineError> {
        let bucket = &self.plan.buckets[self.active];
        let dims = &bucket.slot_dims[self.plan.output_slot];
        let lead = dims.first().copied().unwrap_or(1);
        if !(lead * batch).is_multiple_of(bucket.batch) {
            return Err(EngineError::Execution(format!(
                "cannot slice batch {batch} rows from output dims {dims:?} served \
                 at bucket batch {}",
                bucket.batch
            )));
        }
        let arena = &self.arenas[self.active];
        let full = &arena.data[arena.slots[self.plan.output_slot].clone()];
        let full = TensorRef::new(full, dims).map_err(OpError::from)?;
        self.output
            .copy_rows_from(full, lead * batch / bucket.batch);
        Ok(())
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
        let base_dims = &self.plan.input_dims;
        let base_batch = base_dims.first().copied().unwrap_or(1).max(1);
        let homogeneous = inputs.iter().all(|t| t.dims() == base_dims.as_slice());
        let per_chunk = match homogeneous {
            true => (self.plan.max_bucket_batch() / base_batch).max(1),
            false => 1,
        };
        let mut outputs = Vec::with_capacity(inputs.len());
        for (c, chunk) in inputs.chunks(per_chunk).enumerate() {
            let done = outputs.len();
            if chunk.len() > 1 && self.run_stacked(chunk, &mut outputs).is_ok() {
                continue;
            }
            outputs.truncate(done);
            // A batched run cannot say which input poisoned it; run the
            // chunk serially so the failing index is identified and healthy
            // inputs still complete.
            for (j, input) in chunk.iter().enumerate() {
                let out = self.run(input);
                outputs.push(
                    out.map_err(|e| indexed_input_error(c * per_chunk + j, &e))?
                        .clone(),
                );
            }
        }
        Ok(outputs)
    }

    /// Runs `chunk` as one stacked batch and appends its rows to `outputs`.
    fn run_stacked(
        &mut self,
        chunk: &[Tensor],
        outputs: &mut Vec<Tensor>,
    ) -> Result<(), EngineError> {
        let mut dims = self.plan.input_dims.clone();
        dims[0] *= chunk.len();
        let data = chunk.iter().flat_map(Tensor::as_slice).copied().collect();
        let stacked = Tensor::from_vec(data, &dims).map_err(OpError::from)?;
        let out_dims = self.plan.buckets[0].slot_dims[self.plan.output_slot].clone();
        let served = self.run(&stacked)?.as_slice();
        let per_output = served.len() / chunk.len();
        for j in 0..chunk.len() {
            let row = served[j * per_output..(j + 1) * per_output].to_vec();
            outputs.push(Tensor::from_vec(row, &out_dims).map_err(OpError::from)?);
        }
        Ok(())
    }

    /// The one loop in the workspace that executes plan steps. It stamps
    /// each step's wall time into `step_ns` with one clock read per step.
    fn run_inner(&mut self, input: &Tensor) -> Result<(), EngineError> {
        let Session {
            plan,
            pool,
            model,
            arenas,
            active,
            fan_in,
            reference,
            step_ns,
            run_ns,
            ..
        } = self;
        let bucket = &plan.buckets[*active];
        let Arena { data, slots } = &mut arenas[*active];
        let mut run_span = observe::span("run", "session");
        run_span.attr("model", model.as_str());
        let start = Instant::now();

        // The input fills its slot; a between-rung batch fills only its own
        // rows and the tail is zero-padded to the bucket's extent (batch rows
        // are independent in every modeled op, so padded rows cannot bleed
        // into real ones).
        let (rows, pad) = data[slots[plan.input_slot].clone()].split_at_mut(input.len());
        rows.copy_from_slice(input.as_slice());
        pad.fill(0.0);

        let mut mark = Instant::now();
        for (step_idx, step) in plan.steps.iter().enumerate() {
            // A view-move step's output already is its input's buffer.
            if !bucket.memory.view_move[step_idx] {
                // The plan never gives a step's output the buffer of a value
                // the step reads, so every input lies wholly before or after
                // the output's range.
                let out = slots[step.output].clone();
                let (head, rest) = data.split_at_mut(out.start);
                let (out_data, tail) = rest.split_at_mut(out.len());
                let mut inputs = recycle(std::mem::take(fan_in));
                for &slot in &step.inputs {
                    let r = &slots[slot];
                    let src = if r.end <= out.start {
                        &head[r.clone()]
                    } else {
                        &tail[r.start - out.end..r.end - out.end]
                    };
                    inputs
                        .push(TensorRef::new(src, &bucket.slot_dims[slot]).map_err(OpError::from)?);
                }
                let layer = step_layer(reference, step, step_idx);
                let result = run_step(
                    layer,
                    &inputs,
                    out_data,
                    &bucket.slot_dims[step.output],
                    pool,
                );
                *fan_in = recycle(inputs);
                result?;
            }
            let now = Instant::now();
            step_ns[step_idx] = now.duration_since(mark).as_nanos() as u64;
            mark = now;
        }

        *run_ns = mark.duration_since(start).as_nanos() as u64;
        observe::histogram_record("run.latency_us", *run_ns / 1_000);
        drop(run_span);
        Ok(())
    }
}

/// Runs one step's layer into `out`, a slice of the arena viewed as `dims`.
/// If the layer fails, retries once on its reference implementation and
/// surfaces the original error if even that cannot run. The retry only
/// runs on a fault, so its flight-recorder stamps do not touch the
/// zero-alloc steady state.
fn run_step(
    layer: &dyn Layer,
    inputs: &[TensorRef<'_>],
    out: &mut [f32],
    dims: &[usize],
    pool: &ThreadPool,
) -> Result<(), EngineError> {
    let mut layer_span = observe::span(layer.name(), "layer");
    layer_span.attr("op", layer.op_name());
    layer_span.attr("implementation", layer.implementation());
    layer_span.attr("flops", layer.flops());
    poison(out);
    let output = TensorMut::new(&mut *out, dims).map_err(OpError::from)?;
    let Err(primary) = layer.run_into(inputs, output, pool) else {
        return Ok(());
    };
    let Some(fallback) = layer.reference_fallback() else {
        observe::flight_record(
            "selection",
            "fault.unrecoverable",
            format!("{}: {primary}", layer.name()),
        );
        return Err(primary);
    };
    poison(out);
    let output = TensorMut::new(out, dims).map_err(OpError::from)?;
    if fallback.run_into(inputs, output, pool).is_err() {
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
    Ok(())
}

/// The write-once oracle: debug builds fill a step's output with NaN before
/// its layer runs, so a layer that leaves any of it unwritten (or reads it
/// first) poisons the session output. Release builds skip the fill.
fn poison(out: &mut [f32]) {
    if cfg!(debug_assertions) {
        out.fill(f32::NAN);
    }
}

/// Empties `views` and returns its allocation as a vector of views of
/// another lifetime, so one vector carries every step's input views without
/// a view outliving the arena borrow it came from. Collecting an empty
/// vector into one of a same-layout element type reuses its allocation in
/// place, so this never touches the allocator (`zero_alloc.rs` pins it).
fn recycle<'b>(mut views: Vec<TensorRef<'_>>) -> Vec<TensorRef<'b>> {
    views.clear();
    views.into_iter().map(|_| unreachable!()).collect()
}

/// The layer step `idx` runs: the prebuilt reference twin on
/// reference-preferring sessions (the circuit breaker's degraded path), the
/// selected layer otherwise.
fn step_layer<'a>(
    reference: &'a [Option<Box<dyn Layer>>],
    step: &'a PlanStep,
    idx: usize,
) -> &'a dyn Layer {
    reference
        .get(idx)
        .and_then(|l| l.as_deref())
        .unwrap_or(step.layer.as_ref())
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
    fn record_has_one_row_per_plan_step_at_a_between_rung_batch() {
        let mut session = batched_network(4).session();
        let start = std::time::Instant::now();
        session.run(&batch_input(3, 2)).unwrap(); // padded into bucket 4
        let wall = start.elapsed();
        let profile = session.profile();
        let steps = &session.plan.steps;
        assert_eq!(profile.timings.len(), steps.len());
        assert!(session.memory_plan().view_move.contains(&true));
        for (row, step) in profile.timings.iter().zip(steps.iter()) {
            let layer = &step.layer;
            assert_eq!(
                (row.name.as_str(), row.op.as_str()),
                (layer.name(), layer.op_name())
            );
            assert_eq!(row.implementation, layer.implementation());
            assert_eq!(row.flops, layer.flops() * 4, "flops cover the bucket");
        }
        let layer_sum: std::time::Duration = profile.timings.iter().map(|t| t.duration).sum();
        assert!(layer_sum <= profile.total && profile.total <= wall);
        assert_eq!(profile.memory.peak_bytes, session.arena_bytes());
    }

    #[test]
    fn reference_session_records_the_reference_twins() {
        let mut session = tiny_network().reference_session();
        session.run(&batch_input(1, 0)).unwrap();
        let rows = session.profile().timings;
        let mut twins = 0;
        for (row, twin) in rows.iter().zip(&session.reference) {
            if let Some(twin) = twin {
                assert_eq!(row.implementation, twin.implementation());
                twins += 1;
            }
        }
        assert!(twins > 0, "no step has a reference twin");
    }

    /// The write-once oracle is live: in a debug build, a layer that leaves
    /// its output untouched yields NaN at the session output.
    #[cfg(debug_assertions)]
    #[test]
    fn debug_poison_exposes_an_unwritten_output() {
        use crate::error::EngineError;
        use crate::layer::Layer;
        use crate::lower::{BucketPlan, Plan, PlanStep};
        use crate::plan::plan_memory;
        use orpheus_tensor::{TensorMut, TensorRef};
        use orpheus_threads::ThreadPool;
        use std::sync::Arc;

        #[derive(Debug)]
        struct Lazy;
        impl Layer for Lazy {
            fn name(&self) -> &str {
                "lazy"
            }
            fn op_name(&self) -> &str {
                "Lazy"
            }
            fn implementation(&self) -> &str {
                "writes-nothing"
            }
            fn run_into(
                &self,
                _: &[TensorRef<'_>],
                _: TensorMut<'_>,
                _: &ThreadPool,
            ) -> Result<(), EngineError> {
                Ok(())
            }
        }

        let steps = vec![PlanStep {
            layer: Box::new(Lazy),
            inputs: vec![0],
            output: 1,
            viewable: false,
        }];
        let last_use = vec![0, usize::MAX];
        let slot_dims = vec![vec![1, 4]; 2];
        let plan = Plan {
            num_slots: 2,
            input_slot: 0,
            input_dims: vec![1, 4],
            output_slot: 1,
            buckets: vec![BucketPlan {
                batch: 1,
                memory: plan_memory(&steps, &last_use, &slot_dims),
                slot_dims,
            }],
            steps: steps.into(),
            last_use,
            gemm_isa: "scalar",
        };
        let mut session =
            super::Session::new(Arc::new(plan), ThreadPool::single(), "lazy".into(), false);
        let out = session.run(&Tensor::ones(&[1, 4])).unwrap();
        assert!(out.as_slice().iter().all(|x| x.is_nan()), "{out:?}");
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
