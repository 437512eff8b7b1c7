//! Auto-tune times only real races. The span recorder is process-global, so
//! this check lives in its own test binary, where no other test can enable,
//! disable or drain the recorder while it runs.

use orpheus::SelectionPolicy;
use orpheus_observe as observe;
use orpheus_ops::conv::{Conv2dParams, ConvAlgorithm};
use orpheus_threads::ThreadPool;

/// Selects `params` under `AutoTune` with the recorder on and counts the
/// `autotune:*` spans it leaves.
fn timed_candidates(params: &Conv2dParams) -> (ConvAlgorithm, usize) {
    observe::enable();
    let algo = SelectionPolicy::AutoTune { trials: 1 }.select(params, 8, 8, &ThreadPool::single());
    let spans = observe::take_trace().spans;
    observe::disable();
    let timed = spans
        .iter()
        .filter(|s| s.name.starts_with("autotune:"))
        .count();
    (algo, timed)
}

#[test]
fn auto_tune_times_only_contested_layers() {
    // A dense 3x3 layer has one candidate, packed GEMM: nothing to time.
    let dense = Conv2dParams::square(8, 8, 3).with_padding(1, 1);
    assert_eq!(timed_candidates(&dense), (ConvAlgorithm::default(), 0));
    // A depthwise layer races packed GEMM against the depthwise kernel.
    let depthwise = Conv2dParams::depthwise(8, 3).with_padding(1, 1);
    let (algo, timed) = timed_candidates(&depthwise);
    assert!(algo.supports(&depthwise));
    assert_eq!(timed, 2, "both depthwise candidates are timed");
}
