//! Deterministic fault injection for robustness drills.
//!
//! [`FaultyLayer`] wraps a real layer and fails `run_into` according to a
//! configured [`FaultMode`], while passing [`Layer::reference_fallback`]
//! through to the wrapped layer. Loading a model with
//! [`EngineBuilder::fault_injection`](crate::EngineBuilder::fault_injection)
//! wraps every layer whose implementation string contains the configured
//! needle, which lets tests (and operators reproducing an incident) prove
//! that inference still completes through the reference path when a selected
//! implementation breaks at runtime.
//!
//! The default mode returns an [`EngineError`] on every call — the failure
//! shape the in-session reference-fallback rescue handles. The panicking
//! modes exist for the serving layer: a panic unwinds straight through
//! `Session::run` and is only contained by the `catch_unwind` isolation in
//! `orpheus-serve`'s worker pool, so they are the tool for proving that a
//! poisoned worker is re-armed instead of taking the process down.

use std::sync::atomic::{AtomicU64, Ordering};

use orpheus_tensor::{TensorMut, TensorRef};
use orpheus_threads::ThreadPool;

use crate::error::EngineError;
use crate::layer::Layer;

/// How an injected fault manifests at `run_into` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Every run returns an [`EngineError`] (the default). Exercises the
    /// executor's per-layer reference-fallback rescue.
    Error,
    /// Every run panics. Panics unwind past the executor's rescue, so this
    /// exercises worker panic isolation in the serving layer.
    Panic,
    /// The first `n` runs of each wrapped layer panic, later runs succeed.
    /// With a single serving worker this is fully deterministic — the tool
    /// for proving a circuit breaker trips and then half-open-recovers.
    PanicFirst(u64),
    /// Deterministic pseudo-random faults: each run fails with probability
    /// `per_mille`/1000, drawn from a SplitMix64 stream seeded per layer,
    /// alternating between errors and panics. The chaos-test workhorse.
    Flaky {
        /// Failure probability in 0..=1000 (per-mille).
        per_mille: u16,
        /// Base seed; each layer instance mixes in its name so wrapped
        /// layers do not fault in lockstep.
        seed: u64,
    },
}

/// What one `run_into` invocation should do.
enum Verdict {
    Proceed,
    Fail,
    Panic,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A layer whose selected implementation fails at `run_into` time per the
/// configured [`FaultMode`].
#[derive(Debug)]
pub(crate) struct FaultyLayer {
    inner: Box<dyn Layer>,
    mode: FaultMode,
    /// Per-instance invocation counter driving `PanicFirst` and `Flaky`.
    calls: AtomicU64,
    /// Name-derived salt so `Flaky` streams differ per layer.
    salt: u64,
    /// `faulty(<inner implementation>)`, built once.
    implementation: String,
}

impl FaultyLayer {
    pub(crate) fn new(inner: Box<dyn Layer>, mode: FaultMode) -> Self {
        let salt = inner.name().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        FaultyLayer {
            implementation: format!("faulty({})", inner.implementation()),
            inner,
            mode,
            calls: AtomicU64::new(0),
            salt,
        }
    }

    fn verdict(&self) -> Verdict {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.mode {
            FaultMode::Error => Verdict::Fail,
            FaultMode::Panic => Verdict::Panic,
            FaultMode::PanicFirst(k) => {
                if n < k {
                    Verdict::Panic
                } else {
                    Verdict::Proceed
                }
            }
            FaultMode::Flaky { per_mille, seed } => {
                let h = splitmix64(seed ^ self.salt ^ n);
                if h % 1000 < u64::from(per_mille) {
                    // Split surviving entropy: roughly half the failures
                    // panic, half error, still fully deterministic.
                    if h & (1 << 60) != 0 {
                        Verdict::Panic
                    } else {
                        Verdict::Fail
                    }
                } else {
                    Verdict::Proceed
                }
            }
        }
    }

    /// Applies this call's verdict; `Ok(())` means the wrapped layer should
    /// run for real.
    fn gate(&self) -> Result<(), EngineError> {
        match self.verdict() {
            Verdict::Proceed => Ok(()),
            Verdict::Fail => Err(EngineError::Execution(format!(
                "injected fault in layer {:?} ({})",
                self.inner.name(),
                self.inner.implementation()
            ))),
            Verdict::Panic => panic!(
                "injected panic in layer {:?} ({})",
                self.inner.name(),
                self.inner.implementation()
            ),
        }
    }
}

impl Layer for FaultyLayer {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn op_name(&self) -> &str {
        self.inner.op_name()
    }
    fn implementation(&self) -> &str {
        &self.implementation
    }
    fn run_into(
        &self,
        inputs: &[TensorRef<'_>],
        output: TensorMut<'_>,
        pool: &ThreadPool,
    ) -> Result<(), EngineError> {
        self.gate()?;
        self.inner.run_into(inputs, output, pool)
    }
    fn flops(&self) -> u64 {
        self.inner.flops()
    }
    fn reference_fallback(&self) -> Option<Box<dyn Layer>> {
        self.inner.reference_fallback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::run_layer;
    use crate::layers::native::{Op, OpLayer};
    use orpheus_ops::activation::Activation;
    use orpheus_tensor::Tensor;

    fn relu() -> Box<dyn Layer> {
        Box::new(OpLayer::new("a", Op::Activation(Activation::Relu)))
    }

    #[test]
    fn faulty_layer_always_fails_and_reports() {
        let layer = FaultyLayer::new(relu(), FaultMode::Error);
        assert_eq!(layer.name(), "a");
        assert_eq!(layer.op_name(), "Activation");
        assert!(layer.implementation().starts_with("faulty("));
        let t = Tensor::ones(&[2]);
        let err = run_layer(&layer, &[&t], &[2]).unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        // An activation layer has no reference twin to fall back to.
        assert!(layer.reference_fallback().is_none());
    }

    #[test]
    fn panic_mode_panics() {
        let layer = FaultyLayer::new(relu(), FaultMode::Panic);
        let t = Tensor::ones(&[2]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = run_layer(&layer, &[&t], &[2]);
        }));
        assert!(caught.is_err(), "panic mode must unwind");
    }

    #[test]
    fn panic_first_recovers_after_n_calls() {
        let layer = FaultyLayer::new(relu(), FaultMode::PanicFirst(2));
        let t = Tensor::ones(&[2]);
        for _ in 0..2 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_layer(&layer, &[&t], &[2])
            }));
            assert!(caught.is_err());
        }
        // Third call runs the wrapped layer for real.
        assert!(run_layer(&layer, &[&t], &[2]).is_ok());
    }

    #[test]
    fn flaky_mode_is_deterministic_and_mixed() {
        let t = Tensor::ones(&[2]);
        let outcomes = |seed: u64| -> Vec<u8> {
            let layer = FaultyLayer::new(
                relu(),
                FaultMode::Flaky {
                    per_mille: 500,
                    seed,
                },
            );
            (0..64)
                .map(|_| {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_layer(&layer, &[&t], &[2]).is_ok()
                    })) {
                        Ok(true) => 0,
                        Ok(false) => 1,
                        Err(_) => 2,
                    }
                })
                .collect()
        };
        let a = outcomes(7);
        let b = outcomes(7);
        assert_eq!(a, b, "same seed must replay identically");
        assert!(a.contains(&0), "some calls must succeed");
        assert!(a.contains(&1), "some calls must error");
        assert!(a.contains(&2), "some calls must panic");
    }
}
