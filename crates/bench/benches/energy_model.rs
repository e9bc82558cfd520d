//! Figure 15 / Table I benchmark: the activity-based energy accounting over simulated
//! runs of the three A3 configurations.

use a3_bench::skewed_memory;
use a3_sim::{A3Config, EnergyModel, MemoryCache, PipelineModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_energy(c: &mut Criterion) {
    let (keys, values, query) = skewed_memory(320, 64, 23);
    let queries: Vec<Vec<f32>> = (0..16).map(|_| query.clone()).collect();

    let mut group = c.benchmark_group("fig15_energy_model");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(20);

    for (name, config) in [
        ("base", A3Config::paper_base()),
        ("conservative", A3Config::paper_conservative()),
        ("aggressive", A3Config::paper_aggressive()),
    ] {
        let model = PipelineModel::new(config);
        let report = model.run_batch_with(
            model.backend().as_ref(),
            &mut MemoryCache::new(1),
            &keys,
            &values,
            &queries,
        );
        let energy = EnergyModel::new(config);
        group.bench_with_input(BenchmarkId::new("breakdown", name), &name, |b, _| {
            b.iter(|| {
                let breakdown = energy.energy(black_box(&report));
                black_box(breakdown.total_j())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_energy);
criterion_main!(benches);
