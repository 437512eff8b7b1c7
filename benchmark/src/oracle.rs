//! Inputs from the seed, and the expected output of every op.
//!
//! The expected outputs are those of `Network::reference_session()` — the
//! reference implementation of every layer. At the default seed they are
//! committed under `benchmark/golden/` and a timed run only reads them, so
//! nothing but the workload is in its footprint; the traced run of that seed
//! also runs the live reference session and fails if the two disagree, so
//! neither the optimized nor the reference path can drift unnoticed. At any
//! other seed a timed run has a child process (`golden --seed`) write the
//! same kind of file first, and a traced run asks the reference session
//! itself.
//!
//! The benchmark's models end at their logits (see
//! `workloads::model_graph`), and the tolerance is the one the repo
//! documents for its SIMD differential suites
//! (`crates/core/tests/simd_differential.rs`: 1e-4 relative, 1e-5
//! absolute), taken relative to the output's largest logit: element-wise it
//! would reject a near-zero logit beside one of a few hundred over an error
//! of 4e-5, which is rounding, not a wrong answer.

use std::path::Path;

use orpheus::Network;
use orpheus_tensor::{SmallRng, Tensor};

use crate::workloads::{engine, model_graph, Driver, Workload};
use crate::Res;

pub const DEFAULT_SEED: u64 = 1;
pub const RTOL: f32 = 1e-4;
pub const ATOL: f32 = 1e-5;

/// `count` input tensors of `dims`, uniform in [-1, 1), fixed by `seed`.
/// Input `i` depends only on `(seed, i)`, so workloads sharing a model and
/// a seed share their first inputs — and one golden file.
pub fn make_inputs(seed: u64, dims: &[usize], count: usize) -> Vec<Tensor> {
    (0..count)
        .map(|i| {
            let mut rng =
                SmallRng::seed_from_u64(seed.wrapping_mul(0x1_0000).wrapping_add(i as u64));
            Tensor::from_fn(dims, |_| rng.gen_range(-1.0, 1.0))
        })
        .collect()
}

pub fn close(actual: &[f32], expected: &[f32]) -> bool {
    if actual.len() != expected.len() {
        return false;
    }
    let scale = expected.iter().fold(0.0f32, |m, e| m.max(e.abs()));
    let tolerance = ATOL + RTOL * scale;
    // `<=` is false for a NaN, so a NaN output is a wrong output.
    actual
        .iter()
        .zip(expected)
        .all(|(a, e)| (a - e).abs() <= tolerance)
}

#[derive(Debug)]
pub struct Oracle {
    expected: Vec<Vec<f32>>,
    /// Outputs an op must reproduce bit for bit, when there are such.
    exact: Option<Vec<Tensor>>,
}

impl Oracle {
    /// The expected output of every input of `w`: the ones `golden` holds,
    /// or without a file what the reference session of the workload's model
    /// answers now. `live` asks the reference session even beside a file, and
    /// the two must agree. A served output must also equal a direct run.
    pub fn of(w: &Workload, inputs: &[Tensor], golden: Option<&Path>, live: bool) -> Res<Oracle> {
        let pinned = golden
            .map(|path| Oracle::from_golden(path, inputs.len()))
            .transpose()?;
        let served = w.driver == Driver::ServeBurst;
        let pinned = match pinned {
            Some(pinned) if !live && !served => return Ok(pinned),
            other => other,
        };
        let network = engine(w.max_batch())?.load(model_graph(w))?;
        let oracle = match pinned {
            Some(pinned) if !live => pinned,
            Some(pinned) => {
                pinned.agrees_with(&Oracle::from_reference(&network, inputs)?)?;
                pinned
            }
            None => Oracle::from_reference(&network, inputs)?,
        };
        if served {
            oracle.pin_to_direct_runs(&network, inputs)
        } else {
            Ok(oracle)
        }
    }

    /// The first `count` outputs a golden file holds.
    pub fn from_golden(path: &Path, count: usize) -> Res<Oracle> {
        let mut expected = read_golden(path)?;
        if expected.len() < count {
            return Err(format!(
                "{} holds {} outputs, the workload needs {count}",
                path.display(),
                expected.len()
            )
            .into());
        }
        expected.truncate(count);
        Ok(Oracle {
            expected,
            exact: None,
        })
    }

    /// What the network's reference session answers to `inputs`, computed now.
    pub fn from_reference(network: &Network, inputs: &[Tensor]) -> Res<Oracle> {
        Ok(Oracle {
            expected: reference_outputs(network, inputs)?
                .iter()
                .map(|output| output.as_slice().to_vec())
                .collect(),
            exact: None,
        })
    }

    /// Fails when `live` gives another answer than `self` to any input.
    pub fn agrees_with(&self, live: &Oracle) -> Res<()> {
        match (0..self.expected.len()).find(|&i| !close(&live.expected[i], &self.expected[i])) {
            Some(i) => Err(format!("reference output {i} no longer matches its golden").into()),
            None => Ok(()),
        }
    }

    /// Whether `output` is the right answer for input `index`.
    pub fn accepts(&self, index: usize, output: &Tensor) -> bool {
        close(output.as_slice(), &self.expected[index])
            && self
                .exact
                .as_ref()
                .is_none_or(|exact| exact[index].as_slice() == output.as_slice())
    }

    /// Also requires every output to equal a direct `Session::run` of the
    /// same network bit for bit: what a served or batched output must do.
    pub fn pin_to_direct_runs(mut self, network: &Network, inputs: &[Tensor]) -> Res<Oracle> {
        let mut session = network.session();
        let direct: Vec<Tensor> = inputs
            .iter()
            .map(|input| Ok(session.run(input)?.clone()))
            .collect::<Res<_>>()?;
        if let Some(i) = (0..direct.len()).find(|&i| !self.accepts(i, &direct[i])) {
            return Err(format!("direct session output {i} is wrong").into());
        }
        self.exact = Some(direct);
        Ok(self)
    }
}

/// Runs every input through the network's reference session.
pub fn reference_outputs(network: &Network, inputs: &[Tensor]) -> Res<Vec<Tensor>> {
    let mut session = network.reference_session();
    inputs
        .iter()
        .map(|input| Ok(session.run(input)?.clone()))
        .collect()
}

/// One output per line, values separated by spaces in Rust's shortest
/// round-trip decimal form, so reading gives back the exact `f32`s.
pub fn write_golden(path: &Path, outputs: &[Tensor]) -> Res<()> {
    let mut text = String::new();
    for output in outputs {
        let line: Vec<String> = output.as_slice().iter().map(f32::to_string).collect();
        text.push_str(&line.join(" "));
        text.push('\n');
    }
    std::fs::write(path, text)?;
    Ok(())
}

fn read_golden(path: &Path) -> Res<Vec<Vec<f32>>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read golden file {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            line.split(' ')
                .map(|v| Ok(v.parse::<f32>()?))
                .collect::<Res<Vec<f32>>>()
        })
        .collect()
}
