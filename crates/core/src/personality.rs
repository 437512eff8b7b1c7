//! Framework personalities: the baselines of the paper, as engine
//! configurations.
//!
//! The paper's Figure 2 compares Orpheus against TVM, PyTorch, DarkNet and
//! TF-Lite on the same models. This reproduction implements each comparison
//! framework as a *personality* — a bundle of implementation choices that
//! models the behaviour class the paper measured:
//!
//! | Personality | Convolution | Depthwise | Simplify | Threads |
//! |---|---|---|---|---|
//! | `orpheus` | im2col + packed GEMM | dedicated kernel | yes | any |
//! | `tvm-sim` | spatial pack | dedicated kernel | yes | any |
//! | `pytorch-sim` | eager im2col + blocked GEMM | grouped GEMM (slow) | no | any |
//! | `darknet-sim` | naive direct | naive direct | no | any |
//! | `tflite-sim` | im2col + blocked GEMM | dedicated kernel | yes | **max only** |
//!
//! `tflite-sim`'s thread restriction reproduces the reason the paper
//! *excludes* TF-Lite from Figure 2: "the Python API always selects the
//! maximum number of threads, so we could not select one."

use std::fmt;

use orpheus_gemm::GemmKernel;
use orpheus_ops::conv::ConvAlgorithm;

use crate::selection::SelectionPolicy;

/// A framework personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Personality {
    /// This framework: packed GEMM convolution, dedicated depthwise, full
    /// graph simplification, heuristic selection available.
    Orpheus,
    /// TVM behaviour class: spatial-pack convolution.
    TvmSim,
    /// PyTorch behaviour class: GEMM convolution one kernel tier below
    /// Orpheus, the inefficient grouped-GEMM depthwise path, and eager
    /// execution (no graph simplification).
    PytorchSim,
    /// DarkNet behaviour class: naive direct convolution.
    DarknetSim,
    /// TF-Lite behaviour class: refuses to run with anything but the
    /// maximum hardware thread count.
    TfliteSim,
}

/// How a personality constrains the thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadPolicy {
    /// Any positive thread count.
    Any,
    /// Only the maximum hardware thread count (TF-Lite's Python API).
    MaxOnly,
}

impl Personality {
    /// All personalities, in Table I column order.
    pub const ALL: [Personality; 5] = [
        Personality::TfliteSim,
        Personality::PytorchSim,
        Personality::DarknetSim,
        Personality::TvmSim,
        Personality::Orpheus,
    ];

    /// CLI/display name.
    pub fn name(&self) -> &'static str {
        match self {
            Personality::Orpheus => "orpheus",
            Personality::TvmSim => "tvm-sim",
            Personality::PytorchSim => "pytorch-sim",
            Personality::DarknetSim => "darknet-sim",
            Personality::TfliteSim => "tflite-sim",
        }
    }

    /// The framework the personality models, as the paper names it.
    pub fn models_framework(&self) -> &'static str {
        match self {
            Personality::Orpheus => "Orpheus",
            Personality::TvmSim => "TVM",
            Personality::PytorchSim => "PyTorch",
            Personality::DarknetSim => "DarkNet",
            Personality::TfliteSim => "TF-Lite",
        }
    }

    /// Parses a personality name.
    pub fn from_name(name: &str) -> Option<Personality> {
        match name.to_lowercase().as_str() {
            "orpheus" => Some(Personality::Orpheus),
            "tvm" | "tvm-sim" | "tvmsim" => Some(Personality::TvmSim),
            "pytorch" | "pytorch-sim" | "pytorchsim" => Some(Personality::PytorchSim),
            "darknet" | "darknet-sim" | "darknetsim" => Some(Personality::DarknetSim),
            "tflite" | "tf-lite" | "tflite-sim" | "tflitesim" => Some(Personality::TfliteSim),
            _ => None,
        }
    }

    /// The convolution selection policy this personality pins.
    pub fn conv_policy(&self) -> SelectionPolicy {
        match self {
            Personality::Orpheus => {
                SelectionPolicy::Fixed(ConvAlgorithm::Im2colGemm(GemmKernel::Packed))
            }
            Personality::TvmSim => SelectionPolicy::Fixed(ConvAlgorithm::SpatialPack),
            // A respectable but not best-in-class GEMM, through the eager
            // unfold path that materializes the column matrix for every
            // convolution (what THNN-era PyTorch did): consistently slower
            // than Orpheus, pathological on depthwise, but not an order of
            // magnitude off.
            Personality::PytorchSim => {
                SelectionPolicy::Fixed(ConvAlgorithm::Im2colGemmEager(GemmKernel::Blocked))
            }
            Personality::DarknetSim => SelectionPolicy::Fixed(ConvAlgorithm::Direct),
            Personality::TfliteSim => {
                SelectionPolicy::Fixed(ConvAlgorithm::Im2colGemm(GemmKernel::Blocked))
            }
        }
    }

    /// Whether depthwise convolutions take the algorithm verbatim (the
    /// "pytorch-sim" and "darknet-sim" behaviour) rather than falling back
    /// to the dedicated depthwise kernel.
    pub fn depthwise_uses_generic_path(&self) -> bool {
        matches!(self, Personality::PytorchSim | Personality::DarknetSim)
    }

    /// GEMM tier for dense layers.
    pub fn dense_kernel(&self) -> GemmKernel {
        match self {
            Personality::PytorchSim => GemmKernel::Blocked, // torch FC is fine; conv GEMM is what lags
            Personality::DarknetSim => GemmKernel::Naive,
            _ => GemmKernel::Packed,
        }
    }

    /// Whether the engine runs the graph-simplification pipeline.
    pub fn simplifies_graph(&self) -> bool {
        !matches!(self, Personality::PytorchSim | Personality::DarknetSim)
    }

    /// Thread-count constraint.
    pub fn thread_policy(&self) -> ThreadPolicy {
        match self {
            Personality::TfliteSim => ThreadPolicy::MaxOnly,
            _ => ThreadPolicy::Any,
        }
    }

    /// Capability ratings for the five Table I criteria (1–3 scale, in
    /// [`CAPABILITY_CRITERIA`] order). The "performance" row is left
    /// out — the CLI derives it from measurement (`table1 --measured`);
    /// the static value reproduces the paper's published rating.
    pub fn capabilities(&self) -> Capability {
        // Ratings transcribed from Table I of the paper.
        match self {
            Personality::TfliteSim => Capability::new(1, 2, 3, 1, 2),
            Personality::PytorchSim => Capability::new(1, 3, 2, 2, 2),
            Personality::DarknetSim => Capability::new(2, 1, 3, 3, 1),
            Personality::TvmSim => Capability::new(2, 3, 3, 1, 2),
            Personality::Orpheus => Capability::new(3, 3, 3, 3, 3),
        }
    }
}

impl fmt::Display for Personality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The five criteria of the paper's Table I, in row order.
pub const CAPABILITY_CRITERIA: [&str; 5] = [
    "Low-level modifications",
    "Model interoperability",
    "Platform Compatibility",
    "Codebase accessibility",
    "Performance (inference time)",
];

/// A framework's ratings against [`CAPABILITY_CRITERIA`] (1 = poor,
/// 3 = good, following the paper's scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capability {
    /// Ratings in criteria order.
    pub ratings: [u8; 5],
}

impl Capability {
    fn new(low_level: u8, interop: u8, platform: u8, accessibility: u8, perf: u8) -> Self {
        Capability {
            ratings: [low_level, interop, platform, accessibility, perf],
        }
    }

    /// Rating for a Table I row index (0–4).
    pub fn rating(&self, row: usize) -> u8 {
        self.ratings[row]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in Personality::ALL {
            assert_eq!(Personality::from_name(p.name()), Some(p));
        }
        assert_eq!(Personality::from_name("TVM"), Some(Personality::TvmSim));
        assert_eq!(Personality::from_name("bogus"), None);
    }

    #[test]
    fn table1_ratings_match_paper() {
        // Spot-check values transcribed from the paper's Table I.
        assert_eq!(Personality::Orpheus.capabilities().ratings, [3, 3, 3, 3, 3]);
        assert_eq!(Personality::TfliteSim.capabilities().rating(0), 1);
        assert_eq!(Personality::DarknetSim.capabilities().rating(1), 1);
        assert_eq!(Personality::TvmSim.capabilities().rating(3), 1);
    }

    #[test]
    fn tflite_is_max_threads_only() {
        assert_eq!(
            Personality::TfliteSim.thread_policy(),
            ThreadPolicy::MaxOnly
        );
        assert_eq!(Personality::Orpheus.thread_policy(), ThreadPolicy::Any);
    }

    #[test]
    fn eager_frameworks_skip_simplification() {
        assert!(!Personality::PytorchSim.simplifies_graph());
        assert!(!Personality::DarknetSim.simplifies_graph());
        assert!(Personality::Orpheus.simplifies_graph());
        assert!(Personality::TvmSim.simplifies_graph());
    }

    #[test]
    fn depthwise_paths() {
        assert!(Personality::PytorchSim.depthwise_uses_generic_path());
        assert!(!Personality::Orpheus.depthwise_uses_generic_path());
        assert!(!Personality::TvmSim.depthwise_uses_generic_path());
    }

    #[test]
    fn behaviour_bundles_differ() {
        use std::collections::HashSet;
        let set: HashSet<String> = Personality::ALL
            .iter()
            .map(|p| {
                format!(
                    "{:?}/{}/{}/{:?}",
                    p.conv_policy(),
                    p.depthwise_uses_generic_path(),
                    p.simplifies_graph(),
                    p.thread_policy()
                )
            })
            .collect();
        assert_eq!(set.len(), 5, "each personality is behaviourally distinct");
    }
}
