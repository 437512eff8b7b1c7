//! EXP-ARENA — what holding a session buys over the one-shot convenience API.
//!
//! Two variants per model, all single-thread under the Orpheus
//! personality:
//!
//! * `oneshot` — `Network::run`: a throwaway `Session` per call, so each
//!   run pays arena construction once (the convenience-API cost).
//! * `session` — one held `Session`: the steady-state path, zero activation
//!   heap allocations per run.

use criterion::{criterion_group, criterion_main, Criterion};
use orpheus::Personality;
use orpheus_bench::{bench_scale, load_network};
use orpheus_models::ModelKind;
use std::hint::black_box;

fn session_arena(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("session_arena/{:?}", bench_scale()));
    group.sample_size(10);
    for model in [ModelKind::TinyCnn, ModelKind::LeNet5, ModelKind::Wrn40_2] {
        let (network, input) = load_network(Personality::Orpheus, model, 1);
        group.bench_function(format!("{}/oneshot", model.name()), |b| {
            b.iter(|| black_box(network.run(&input).expect("inference succeeds")))
        });
        let mut session = network.session();
        group.bench_function(format!("{}/session", model.name()), |b| {
            b.iter(|| {
                let out = session.run(&input).expect("inference succeeds");
                black_box(out.as_slice()[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, session_arena);
criterion_main!(benches);
