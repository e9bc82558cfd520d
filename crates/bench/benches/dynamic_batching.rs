//! Dynamic-batching benchmark: batch window × per-request vs batched serving.
//!
//! Measures the request-oriented serving front-end (`AttentionServer`): a fixed
//! open-loop trace of single-query requests against one registered memory is
//! submitted and polled to completion under different batching policies. The
//! per-request policy (window 0, `max_batch` 1) flushes every request at its own
//! arrival; wider windows let the scheduler form real batches, which amortize the
//! per-batch dispatch. Sessions are registered once outside the timing loop, so
//! every policy serves from a warm prepared memory — the measured gap is purely
//! the batching win.
//!
//! The setup also replays the same trace through the cycle-accurate `ServerSim`
//! and asserts that warm-cache dynamic batching beats per-request serving in
//! end-to-end accelerator cycles, so the bench doubles as a regression check on
//! the acceptance criterion.

use a3_bench::skewed_memory;
use a3_core::backend::{ApproximateBackend, MemoryCache};
use a3_core::serve::{AttentionServer, BatchPolicy, MemoryConfig, Request};
use a3_sim::{A3Config, PipelineModel, ServerSim, TraceRequest};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

const REQUESTS: usize = 64;
const ARRIVAL_GAP: u64 = 10;

/// The benchmark trace: `REQUESTS` queries against one memory, one arrival every
/// `ARRIVAL_GAP` ticks, queries perturbed per request.
fn trace_queries(query: &[f32]) -> Vec<Vec<f32>> {
    (0..REQUESTS)
        .map(|i| {
            let scale = 1.0 + 0.001 * i as f32;
            query.iter().map(|x| x * scale).collect()
        })
        .collect()
}

/// Asserts the acceptance criterion on the cycle model: warm-cache dynamic
/// batching must beat per-request serving in end-to-end cycles.
fn assert_batching_wins(keys: &a3_core::Matrix, values: &a3_core::Matrix, queries: &[Vec<f32>]) {
    let backend = ApproximateBackend::conservative();
    let memories = vec![(keys.clone(), values.clone())];
    let trace: Vec<TraceRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| TraceRequest::new(0, q.clone(), i as u64 * ARRIVAL_GAP))
        .collect();
    let model = PipelineModel::new(A3Config::paper_conservative());
    let replay = |policy: BatchPolicy| {
        let mut cache = MemoryCache::new(2);
        cache
            .get_or_prepare(&backend, keys, values)
            .expect("valid shapes");
        ServerSim::new(model.clone(), policy).replay(&backend, &mut cache, &memories, &trace)
    };
    let per_request = replay(BatchPolicy::per_request());
    let batched = replay(BatchPolicy::new(16, 2_048).expect("max_batch >= 1"));
    assert!(
        batched.end_to_end_cycles() < per_request.end_to_end_cycles(),
        "dynamic batching ({}) must beat per-request serving ({}) end-to-end",
        batched.end_to_end_cycles(),
        per_request.end_to_end_cycles()
    );
}

fn bench_dynamic_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_batching");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);

    let (keys, values, query) = skewed_memory(320, 64, 17);
    let queries = trace_queries(&query);
    assert_batching_wins(&keys, &values, &queries);

    // Window 0 is the per-request baseline; wider windows batch more aggressively.
    for window in [0u64, 64, 512, 4_096] {
        let policy = if window == 0 {
            BatchPolicy::per_request()
        } else {
            BatchPolicy::new(16, window).expect("max_batch >= 1")
        };
        group.bench_with_input(BenchmarkId::new("window", window), &policy, |b, &policy| {
            b.iter(|| {
                let mut server =
                    AttentionServer::builder(Box::new(ApproximateBackend::conservative()))
                        .batch_policy(policy)
                        .build();
                let session = server
                    .register(MemoryConfig::new(black_box(&keys), black_box(&values)))
                    .expect("valid shapes");
                let mut completed = 0usize;
                for (i, q) in queries.iter().enumerate() {
                    let now = i as u64 * ARRIVAL_GAP;
                    server
                        .submit(Request::new(session, q.clone(), now))
                        .expect("registered session");
                    for batch in server.poll(now).expect("valid batches") {
                        completed += batch.responses.len();
                    }
                }
                for batch in server
                    .flush_all(REQUESTS as u64 * ARRIVAL_GAP)
                    .expect("valid batches")
                {
                    completed += batch.responses.len();
                }
                assert_eq!(completed, REQUESTS);
                black_box(completed)
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_dynamic_batching);
criterion_main!(benches);
