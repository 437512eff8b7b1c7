//! Static memory planning: liveness-driven activation-buffer reuse.
//!
//! Once a graph is lowered (and optionally fault-wrapped) the slot wiring is
//! frozen, so buffer lifetimes are known exactly: a slot's value is
//! materialized when its producing step runs and last read at its final
//! consumer. `plan_memory` turns those intervals into a [`MemoryPlan`] via
//! the shared interval planner in `orpheus-verify` — the same algorithm the
//! linter uses for its static prediction — so disjoint lifetimes share one
//! recycled buffer and pure view steps (Flatten/Reshape/Identity) alias
//! their input's storage outright, executing as moves instead of copies.
//!
//! The plan is computed once at `Engine::load`; every
//! [`Session`](crate::Session) then preallocates the planned buffers and
//! runs steady-state inference without touching the heap.
//!
//! `plan_memory_no_reuse` is the degenerate twin — one buffer per slot, no
//! view-moves — that turns the same executor into the oracle arena reuse is
//! proven bit-identical against.

use std::sync::Arc;

use orpheus_verify::{plan_buffers, BucketSpec, PlanSpec, SlotInterval, StepSpec};

use crate::lower::{BucketPlan, Plan, PlanStep};

const BYTES_PER_ELEMENT: usize = 4;

/// The frozen buffer-reuse plan for one lowered network.
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    /// For each slot, the arena buffer holding its value.
    pub(crate) buffer_of: Vec<usize>,
    /// Planned element capacity of each arena buffer.
    pub(crate) buffer_elems: Vec<usize>,
    /// For each step, whether the executor moves the (dying) input buffer
    /// into the output slot instead of running the layer.
    pub(crate) view_move: Vec<bool>,
    /// For each step, the slots reclaimed (buffer returned to the arena)
    /// once the step completes.
    pub(crate) reclaim_at: Vec<Vec<usize>>,
    /// Number of view steps that execute as moves.
    aliased_views: usize,
    /// Sum of all slot value sizes — what a no-reuse executor would hold.
    total_slot_bytes: usize,
}

impl MemoryPlan {
    /// Total planned arena size in bytes.
    pub fn arena_bytes(&self) -> usize {
        self.buffer_elems.iter().sum::<usize>() * BYTES_PER_ELEMENT
    }

    /// Number of distinct recycled buffers.
    pub fn num_buffers(&self) -> usize {
        self.buffer_elems.len()
    }

    /// Number of view steps the executor runs as zero-copy moves.
    pub fn aliased_views(&self) -> usize {
        self.aliased_views
    }

    /// Bytes all slot values would occupy without reuse.
    pub fn total_slot_bytes(&self) -> usize {
        self.total_slot_bytes
    }

    /// How many times over the arena is reused (`total / arena`; 1.0 for an
    /// empty plan).
    pub fn reuse_ratio(&self) -> f64 {
        let arena = self.arena_bytes();
        if arena == 0 {
            1.0
        } else {
            self.total_slot_bytes as f64 / arena as f64
        }
    }

    /// One-line human-readable summary for `Network::describe`.
    pub fn summary(&self) -> String {
        format!(
            "memory plan: {} buffer(s), {} arena byte(s) for {} value byte(s) \
             (reuse {:.2}x, {} aliased view(s))",
            self.num_buffers(),
            self.arena_bytes(),
            self.total_slot_bytes,
            self.reuse_ratio(),
            self.aliased_views
        )
    }
}

/// Element count of a value with these dims (a rank-0 scalar holds one).
pub(crate) fn elems(dims: &[usize]) -> usize {
    dims.iter()
        .product::<usize>()
        .max(usize::from(dims.is_empty()))
}

/// Computes the buffer-reuse plan for a lowered step list at one batch
/// bucket's per-slot dims. Liveness (step order, last uses, viewability) is
/// batch-independent; only the slot sizes change, so each bucket reuses the
/// same intervals over different extents.
///
/// Call this after fault-injection wrapping: wrapped layers clear the
/// `viewable` flag, and aliasing decisions must match what actually runs.
pub(crate) fn plan_memory(
    steps: &[PlanStep],
    last_use: &[usize],
    slot_dims: &[Vec<usize>],
) -> MemoryPlan {
    let n_slots = last_use.len();
    let elems_of = |slot: usize| elems(&slot_dims[slot]);

    // Slot definition step: the input exists before step 0; step i defines
    // its output at time i + 1 (read times are consumer step + 1).
    let mut def_time = vec![0usize; n_slots];
    for (i, step) in steps.iter().enumerate() {
        def_time[step.output] = i + 1;
    }
    let read_time = |slot: usize| -> usize {
        match last_use[slot] {
            usize::MAX => usize::MAX,
            step => step + 1,
        }
    };

    // View aliasing: a view step whose single input dies at that step can
    // hand its input buffer to the output. Union the two slots so the
    // planner sees one merged lifetime.
    let mut rep: Vec<usize> = (0..n_slots).collect();
    let mut view_move = vec![false; steps.len()];
    for (i, step) in steps.iter().enumerate() {
        if step.viewable
            && step.inputs.len() == 1
            && last_use[step.inputs[0]] == i
            && elems_of(step.inputs[0]) == elems_of(step.output)
        {
            view_move[i] = true;
            rep[step.output] = rep[step.inputs[0]];
        }
    }
    let aliased_views = view_move.iter().filter(|&&v| v).count();

    // One interval per representative: from the chain head's definition to
    // the chain tail's last read.
    let mut group_of_rep = vec![usize::MAX; n_slots];
    let mut intervals: Vec<SlotInterval> = Vec::new();
    let mut group_of_slot = vec![0usize; n_slots];
    for slot in 0..n_slots {
        let r = rep[slot];
        if group_of_rep[r] == usize::MAX {
            group_of_rep[r] = intervals.len();
            intervals.push(SlotInterval {
                elems: elems_of(slot),
                def: def_time[r],
                last_use: def_time[r],
            });
        }
        let g = group_of_rep[r];
        group_of_slot[slot] = g;
        let iv = &mut intervals[g];
        iv.elems = iv.elems.max(elems_of(slot));
        iv.def = iv.def.min(def_time[slot]);
        iv.last_use = iv.last_use.max(read_time(slot)).max(iv.def);
    }

    let buffers = plan_buffers(&intervals);
    let buffer_of: Vec<usize> = group_of_slot
        .iter()
        .map(|&g| buffers.buffer_of[g])
        .collect();

    // Reclaim lists: after step i, return every buffer whose slot was last
    // read there — except a view-move input, whose buffer transfers to the
    // output instead of going back to the arena.
    let mut reclaim_at: Vec<Vec<usize>> = vec![Vec::new(); steps.len()];
    for (slot, &step) in last_use.iter().enumerate() {
        if step == usize::MAX {
            continue;
        }
        if view_move[step] && steps[step].inputs == [slot] {
            continue;
        }
        reclaim_at[step].push(slot);
    }

    let total_slot_bytes = (0..n_slots).map(|s| elems_of(s) * BYTES_PER_ELEMENT).sum();

    MemoryPlan {
        buffer_of,
        buffer_elems: buffers.buffer_elems,
        view_move,
        reclaim_at,
        aliased_views,
        total_slot_bytes,
    }
}

/// The degenerate plan for the same steps: every slot owns a private buffer
/// of exactly its extent, no step executes as a view-move, and each slot is
/// reclaimed after its last reader. A session over it is the no-reuse
/// reference executor, with no executor code of its own.
pub(crate) fn plan_memory_no_reuse(
    num_steps: usize,
    last_use: &[usize],
    slot_dims: &[Vec<usize>],
) -> MemoryPlan {
    let buffer_elems: Vec<usize> = slot_dims.iter().map(|d| elems(d)).collect();
    let mut reclaim_at: Vec<Vec<usize>> = vec![Vec::new(); num_steps];
    for (slot, &step) in last_use.iter().enumerate() {
        if step != usize::MAX {
            reclaim_at[step].push(slot);
        }
    }
    MemoryPlan {
        buffer_of: (0..slot_dims.len()).collect(),
        total_slot_bytes: buffer_elems.iter().sum::<usize>() * BYTES_PER_ELEMENT,
        buffer_elems,
        view_move: vec![false; num_steps],
        reclaim_at,
        aliased_views: 0,
    }
}

impl Plan {
    /// The same program over [`plan_memory_no_reuse`] at every bucket.
    pub(crate) fn without_reuse(&self) -> Plan {
        Plan {
            steps: Arc::clone(&self.steps),
            num_slots: self.num_slots,
            input_slot: self.input_slot,
            input_dims: self.input_dims.clone(),
            output_slot: self.output_slot,
            last_use: self.last_use.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| BucketPlan {
                    batch: b.batch,
                    slot_dims: b.slot_dims.clone(),
                    memory: plan_memory_no_reuse(self.steps.len(), &self.last_use, &b.slot_dims),
                })
                .collect(),
            gemm_isa: self.gemm_isa,
        }
    }
}

/// Projects a lowered `Plan` (plus its per-bucket memory plans) into the
/// backend-neutral [`PlanSpec`] the static plan checker consumes. Layer
/// boxes, dims, and fault wrappers are erased; only the slot wiring, element
/// counts, and arena schedule survive — exactly what soundness depends on.
pub(crate) fn plan_spec(model: &str, plan: &Plan) -> PlanSpec {
    PlanSpec {
        model: model.to_string(),
        num_slots: plan.num_slots,
        input_slot: plan.input_slot,
        output_slot: plan.output_slot,
        steps: plan
            .steps
            .iter()
            .map(|s| StepSpec {
                name: s.layer.name().to_string(),
                inputs: s.inputs.clone(),
                output: s.output,
            })
            .collect(),
        last_use: plan.last_use.clone(),
        buckets: plan
            .buckets
            .iter()
            .map(|b| BucketSpec {
                batch: b.batch,
                slot_elems: b.slot_dims.iter().map(|d| elems(d)).collect(),
                buffer_of: b.memory.buffer_of.clone(),
                buffer_elems: b.memory.buffer_elems.clone(),
                view_move: b.memory.view_move.clone(),
                reclaim_at: b.memory.reclaim_at.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use orpheus_tensor::Tensor;
    use orpheus_threads::ThreadPool;

    #[derive(Debug)]
    struct Nop(&'static str);
    impl Layer for Nop {
        fn name(&self) -> &str {
            self.0
        }
        fn op_name(&self) -> &str {
            "Nop"
        }
        fn implementation(&self) -> String {
            "nop".into()
        }
        fn run_into(
            &self,
            inputs: &[&Tensor],
            output: &mut Tensor,
            _pool: &ThreadPool,
        ) -> Result<(), crate::EngineError> {
            crate::layer::copy_data_into(self.0, inputs[0], output)
        }
    }

    fn step(inputs: &[usize], output: usize, viewable: bool) -> PlanStep {
        PlanStep {
            layer: Box::new(Nop("s")),
            inputs: inputs.to_vec(),
            output,
            viewable,
        }
    }

    /// A one-bucket plan over `steps`, every slot holding `[1, 4]`, the
    /// last slot being the output.
    fn fixture(steps: Vec<PlanStep>, last_use: Vec<usize>) -> Plan {
        let slot_dims = vec![vec![1, 4]; last_use.len()];
        Plan {
            num_slots: last_use.len(),
            input_slot: 0,
            input_dims: vec![1, 4],
            output_slot: last_use.len() - 1,
            buckets: vec![BucketPlan {
                batch: 1,
                memory: plan_memory(&steps, &last_use, &slot_dims),
                slot_dims,
            }],
            steps: steps.into(),
            last_use,
            gemm_isa: "scalar",
        }
    }

    /// chain 0 -> 1 -> 2: slots 0 and 2 can share once 0 dies.
    fn chain_plan(view_tail: bool) -> Plan {
        fixture(
            vec![step(&[0], 1, false), step(&[1], 2, view_tail)],
            vec![0, 1, usize::MAX],
        )
    }

    #[test]
    fn chain_reuses_buffers() {
        let plan = chain_plan(false);
        let mp = &plan.buckets[0].memory;
        assert_eq!(mp.num_buffers(), 2);
        assert_eq!(mp.buffer_of[0], mp.buffer_of[2]);
        assert_ne!(mp.buffer_of[0], mp.buffer_of[1]);
        assert_eq!(mp.arena_bytes(), 2 * 4 * 4);
        assert!(mp.reuse_ratio() > 1.4);
        // slot 0 reclaimed after step 0, slot 1 after step 1.
        assert_eq!(mp.reclaim_at, vec![vec![0], vec![1]]);
    }

    #[test]
    fn dying_view_input_aliases() {
        let plan = chain_plan(true);
        let mp = &plan.buckets[0].memory;
        assert!(mp.view_move[1]);
        assert_eq!(mp.aliased_views(), 1);
        // slots 1 and 2 share one buffer (the move), and slot 0 can still
        // reuse nothing later — two buffers total.
        assert_eq!(mp.buffer_of[1], mp.buffer_of[2]);
        // the view input's buffer transfers: nothing reclaimed at step 1.
        assert_eq!(mp.reclaim_at[1], Vec::<usize>::new());
    }

    #[test]
    fn live_view_input_copies() {
        // slot 1 is read again by step 2, so the view at step 1 cannot move.
        let plan = fixture(
            vec![
                step(&[0], 1, false),
                step(&[1], 2, true),
                step(&[1, 2], 3, false),
            ],
            vec![0, 2, 2, usize::MAX],
        );
        let mp = &plan.buckets[0].memory;
        assert!(!mp.view_move[1]);
        assert_eq!(mp.aliased_views(), 0);
        assert_ne!(mp.buffer_of[1], mp.buffer_of[2]);
    }

    #[test]
    fn no_reuse_twin_owns_one_buffer_per_slot_and_verifies_clean() {
        let planned = chain_plan(true);
        let twin = planned.without_reuse();
        let mp = &twin.buckets[0].memory;
        assert_eq!(mp.buffer_of, vec![0, 1, 2]);
        assert_eq!(mp.arena_bytes(), mp.total_slot_bytes());
        assert_eq!(mp.aliased_views(), 0);
        // Nothing moves, so the view's input is reclaimed like any other.
        assert_eq!(mp.reclaim_at, vec![vec![0], vec![1]]);
        for plan in [&planned, &twin] {
            let report = orpheus_verify::check_plan(&plan_spec("chain", plan));
            assert!(report.is_clean(), "{}", report.render());
        }
    }

    #[test]
    fn summary_mentions_buffers() {
        let s = chain_plan(false).buckets[0].memory.summary();
        assert!(s.contains("2 buffer(s)"), "{s}");
        assert!(s.contains("reuse"), "{s}");
    }
}
