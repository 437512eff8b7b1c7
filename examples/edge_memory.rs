//! Edge memory budget: the activation arena a session keeps resident under
//! the static, liveness-driven memory plan.
//!
//! Edge devices (the paper's IoT boards, phones, drones) are memory-bound
//! as often as compute-bound. The memory plan recycles every activation
//! buffer after its value's last consumer; this example shows what that
//! buys on each of the paper's models.
//!
//! ```sh
//! cargo run --release --example edge_memory
//! ```

use orpheus::Engine;
use orpheus_models::{build_model_with_input, ModelKind};
use orpheus_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<14} {:>6} {:>12} {:>14} {:>14} {:>8}",
        "model", "input", "layers", "arena MiB", "total MiB", "saved"
    );
    for model in ModelKind::FIGURE2 {
        // Reduced inputs keep the example quick; ratios are representative.
        let hw = model.min_input_hw().max(64).min(model.input_dims()[2]);
        let engine = Engine::builder().threads(1).build()?;
        let network = engine.load(build_model_with_input(model, hw, hw))?;
        let input = Tensor::full(&[1, 3, hw, hw], 0.5);
        let (_, profile) = network.run_profiled(&input)?;
        let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
        let peak = mib(profile.memory.peak_bytes);
        let total = mib(profile.memory.total_allocated_bytes);
        println!(
            "{:<14} {:>6} {:>12} {:>14.2} {:>14.2} {:>7.1}x",
            model.name(),
            format!("{hw}x{hw}"),
            network.num_layers(),
            peak,
            total,
            total / peak.max(1e-9)
        );
    }
    println!(
        "\n'saved' = total activation value bytes / planned arena bytes: the\n\
         factor by which liveness-based buffer reuse shrinks the resident footprint."
    );
    Ok(())
}
