//! Layer workbench: compare every implementation of one layer, the
//! research workflow Orpheus exists for.
//!
//! Takes a convolution geometry, runs each applicable algorithm on identical
//! inputs, verifies they agree with the reference implementation, and prints
//! a timing table — "evaluating ... individual layers" from the paper's
//! contribution list.
//!
//! ```sh
//! cargo run --release --example layer_workbench
//! ```

use std::time::Instant;

use orpheus_gemm::GemmKernel;
use orpheus_ops::conv::{Conv2d, Conv2dParams, ConvAlgorithm};
use orpheus_tensor::{allclose, Tensor};
use orpheus_threads::ThreadPool;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pool = ThreadPool::single();

    // Two geometries that sit on opposite sides of the paper's crossover:
    // a small WRN-style layer and a big ResNet-style layer.
    let cases = [
        (
            "WRN-style 32ch @ 32x32",
            Conv2dParams::square(32, 32, 3).with_padding(1, 1),
            32,
        ),
        (
            "ResNet-style 128ch @ 28x28",
            Conv2dParams::square(128, 128, 3).with_padding(1, 1),
            28,
        ),
    ];

    for (label, params, hw) in cases {
        println!("\n== {label} ==");
        let weight = Tensor::from_fn(&params.weight_dims(), |i| ((i % 13) as f32 - 6.0) * 0.02);
        let input = Tensor::from_fn(&[1, params.in_channels, hw, hw], |i| {
            ((i % 17) as f32 - 8.0) * 0.05
        });
        let direct = Conv2d::new(params, weight.clone(), None, ConvAlgorithm::Direct)?;
        let mut reference = Tensor::zeros(&direct.output_dims(input.dims())?);
        direct.run_into(&input, &mut reference, &pool)?;

        println!(
            "{:<26} {:>12} {:>10}",
            "algorithm", "time (us)", "max |err|"
        );
        for algo in [
            ConvAlgorithm::Direct,
            ConvAlgorithm::Im2colGemm(GemmKernel::Naive),
            ConvAlgorithm::Im2colGemm(GemmKernel::Blocked),
            ConvAlgorithm::Im2colGemm(GemmKernel::Packed),
            ConvAlgorithm::SpatialPack,
        ] {
            let conv = Conv2d::new(params, weight.clone(), None, algo)?;
            let mut out = Tensor::zeros(&conv.output_dims(input.dims())?);
            conv.run_into(&input, &mut out, &pool)?; // warm-up + correctness
            let report = allclose(&out, &reference, 1e-3, 1e-4);
            assert!(report.ok, "{algo} disagrees with reference: {report:?}");
            let start = Instant::now();
            let runs = 5;
            for _ in 0..runs {
                conv.run_into(&input, &mut out, &pool)?;
            }
            let micros = start.elapsed().as_secs_f64() * 1e6 / runs as f64;
            println!(
                "{:<26} {:>12.1} {:>10.2e}",
                algo.to_string(),
                micros,
                report.max_abs
            );
        }
    }
    println!("\nAll implementations agree; pick by geometry (see the heuristic policy).");
    Ok(())
}
