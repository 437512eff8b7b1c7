//! Activation-memory accounting.
//!
//! On edge devices — the paper's deployment target — activation memory is
//! often the binding constraint, so a profiled run reports what the static
//! [`MemoryPlan`] keeps resident against what a keep-everything executor
//! would hold (`examples/edge_memory` prints the comparison across the zoo).

use crate::plan::MemoryPlan;

/// Activation-memory statistics of the plan a session runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes of activation storage a held session keeps resident: the
    /// planned arena.
    pub peak_bytes: usize,
    /// Sum of all activation value bytes one run produces — the footprint
    /// without buffer reuse.
    pub total_allocated_bytes: usize,
    /// Values whose buffer returns to the arena before the end of the run
    /// thanks to liveness analysis.
    pub tensors_freed_early: usize,
}

impl MemoryStats {
    pub(crate) fn from_plan(plan: &MemoryPlan) -> Self {
        MemoryStats {
            peak_bytes: plan.arena_bytes(),
            total_allocated_bytes: plan.total_slot_bytes(),
            tensors_freed_early: plan.reclaim_at.iter().map(Vec::len).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use orpheus_models::{build_model, ModelKind};

    #[test]
    fn stats_describe_what_a_held_session_keeps_resident() {
        let network = Engine::builder()
            .build()
            .unwrap()
            .load(build_model(ModelKind::TinyCnn))
            .unwrap();
        let stats = MemoryStats::from_plan(network.memory_plan());
        assert_eq!(stats.peak_bytes, network.session().arena_bytes());
        assert!(stats.peak_bytes <= stats.total_allocated_bytes);
        assert!(stats.tensors_freed_early > 0);
    }

    #[test]
    fn default_is_zeroed() {
        assert_eq!(MemoryStats::default().peak_bytes, 0);
    }
}
