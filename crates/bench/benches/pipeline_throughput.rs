//! Figure 14 benchmark: cycle-level simulation of the base and approximate pipelines
//! for each workload size. The benchmark measures the simulator itself; the simulated
//! cycle counts (the paper's actual Figure 14 data) are regenerated by
//! `a3-repro fig14`.

use a3_bench::{skewed_memory, WORKLOAD_SIZES};
use a3_sim::{A3Config, MemoryCache, PipelineModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14_pipeline_simulation");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);

    for (workload, n) in WORKLOAD_SIZES {
        let (keys, values, query) = skewed_memory(n, 64, 3);
        let queries: Vec<Vec<f32>> = (0..8).map(|_| query.clone()).collect();
        for (config_name, config) in [
            ("base", A3Config::paper_base()),
            ("conservative", A3Config::paper_conservative()),
            ("aggressive", A3Config::paper_aggressive()),
        ] {
            let model = PipelineModel::new(config);
            let backend = model.backend();
            group.bench_with_input(BenchmarkId::new(config_name, workload), &n, |b, _| {
                b.iter(|| {
                    model.run_batch_with(
                        backend.as_ref(),
                        &mut MemoryCache::new(1),
                        black_box(&keys),
                        black_box(&values),
                        black_box(&queries),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
