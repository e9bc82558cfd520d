//! Batched multi-query serving: many queries against one key/value memory.
//!
//! The paper's sorted-key preprocessing (Figure 7) is query-independent, so a serving
//! front-end can sort the key matrix once and serve a whole batch of queries from it.
//! This example builds a KV-MemN2N-style memory, serves a batch of
//! queries through the batched front-end, verifies the outputs are bit-identical to
//! sequential attention, and reports the accelerator-side aggregate latency and
//! throughput for the base, conservative and aggressive pipelines.
//!
//! Run with: `cargo run --release --example batched_serving`

use std::time::Instant;

use a3::core::backend::{
    ApproximateBackend, ComputeBackend, ExactBackend, QuantizedBackend, SimdBackend,
};
use a3::core::serve::{AttentionServer, BatchPolicy, MemoryConfig, Request};
use a3::core::Matrix;
use a3::sim::{A3Config, MemoryCache, PipelineModel};
use a3::workloads::kvmemn2n::KvMemN2N;
use a3::workloads::Workload;

fn main() {
    // One knowledge-base memory, many questions against it.
    let workload = KvMemN2N::new(7);
    let cases = workload.attention_cases(64);
    let memory = &cases[0];
    let queries: Vec<Vec<f32>> = cases.iter().map(|c| c.query.clone()).collect();
    println!(
        "memory: n = {} rows, d = {}; batch: {} queries",
        memory.keys.rows(),
        memory.keys.dim(),
        queries.len()
    );

    // Exact batched attention: one prepared memory, every query in turn.
    let query_matrix = Matrix::from_rows(queries.clone()).expect("non-empty batch");
    let start = Instant::now();
    let exact = ExactBackend
        .attend_batch(&memory.keys, &memory.values, &query_matrix)
        .expect("valid shapes");
    println!(
        "exact batch      : {} outputs in {:?}",
        exact.len(),
        start.elapsed()
    );

    // The same exact batch through the vectorised datapath: runtime-dispatched AVX2
    // kernels (or the scalar fallback on hosts without AVX2 / under
    // A3_FORCE_SCALAR=1), within 1e-5 of the scalar exact outputs.
    let simd = SimdBackend::new();
    let start = Instant::now();
    let simd_batch = simd
        .attend_batch(&memory.keys, &memory.values, &query_matrix)
        .expect("valid shapes");
    println!(
        "simd batch       : {} outputs in {:?} (dispatch: {})",
        simd_batch.len(),
        start.elapsed(),
        simd.level()
    );
    for (fast, reference) in simd_batch.iter().zip(&exact) {
        for (a, b) in fast.output.iter().zip(&reference.output) {
            assert!((a - b).abs() < 1e-5, "simd output diverged: {a} vs {b}");
        }
    }

    // The quantized fixed-point datapath, in both implementations: the scalar
    // raw-integer pipeline and the runtime-dispatched integer AVX2 kernels
    // (`backend::quantized_simd`). Together with the exact and simd runs above,
    // the demo now compares all four datapaths on the same batch. Unlike the
    // f32 SIMD comparison (within 1e-5), the two quantized paths must be
    // *bit-identical*: the vector kernels replicate the fixed-point
    // arithmetic exactly.
    let rows: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
    let quantized = QuantizedBackend::paper();
    let quantized_memory = quantized
        .prepare(&memory.keys, &memory.values)
        .expect("valid shapes");
    let start = Instant::now();
    let quantized_batch = quantized
        .attend_batch_prepared(&quantized_memory, &rows)
        .expect("valid shapes");
    let vectorized = quantized_memory
        .quantized()
        .is_some_and(|m| m.is_vectorized());
    println!(
        "quantized batch  : {} outputs in {:?} (datapath: {})",
        quantized_batch.len(),
        start.elapsed(),
        if vectorized {
            "avx2 int16/int32"
        } else {
            "scalar"
        }
    );
    let quantized_scalar = QuantizedBackend::paper_scalar();
    let scalar_memory = quantized_scalar
        .prepare(&memory.keys, &memory.values)
        .expect("valid shapes");
    let start = Instant::now();
    let scalar_batch = quantized_scalar
        .attend_batch_prepared(&scalar_memory, &rows)
        .expect("valid shapes");
    println!(
        "quantized scalar : {} outputs in {:?}",
        scalar_batch.len(),
        start.elapsed()
    );
    assert_eq!(
        quantized_batch, scalar_batch,
        "vector and scalar quantized datapaths diverged"
    );

    // Approximate batched attention: one preprocessing pass for the whole batch.
    let approx = ApproximateBackend::conservative();
    let start = Instant::now();
    let batch = approx
        .attend_batch(&memory.keys, &memory.values, &query_matrix)
        .expect("valid shapes");
    println!(
        "approx batch     : {} outputs in {:?}",
        batch.len(),
        start.elapsed()
    );

    // The batch path is a pure wall-clock optimization: outputs are bit-identical.
    let start = Instant::now();
    for (query, out) in queries.iter().zip(&batch) {
        let sequential = approx
            .attend(&memory.keys, &memory.values, query)
            .expect("valid shapes");
        assert_eq!(out, &sequential, "batch output diverged from sequential");
    }
    println!("sequential check : bit-identical in {:?}", start.elapsed());

    // What the accelerator itself would do with the batch. Each configuration serves
    // two batches through a persistent preprocessing cache: the first (cold) batch
    // pays the host-side preprocessing, the repeat (warm) batch hits the cache and
    // pays zero — no key sort, no re-quantization.
    for (name, config) in [
        ("base", A3Config::paper_base()),
        ("conservative", A3Config::paper_conservative()),
        ("aggressive", A3Config::paper_aggressive()),
    ] {
        let model = PipelineModel::new(config);
        let backend = model.backend();
        let mut cache = MemoryCache::new(4);
        let mut run = || {
            model.run_batch_with(
                backend.as_ref(),
                &mut cache,
                &memory.keys,
                &memory.values,
                &queries,
            )
        };
        let (cold, warm) = (run(), run());
        assert_eq!((warm.cache_hits, warm.cache_misses), (1, 0));
        println!(
            "{name:>12}: cold batch {} cycles ({} preprocessing), warm batch {} cycles, \
             avg latency {:.1} / p95 {} / p99 {} cycles, {:.2} Mops/s",
            cold.end_to_end_cycles(),
            cold.preprocessing_cycles,
            warm.end_to_end_cycles(),
            cold.avg_latency_cycles,
            cold.p95_latency_cycles,
            cold.p99_latency_cycles,
            cold.throughput_ops_per_s / 1e6
        );
    }

    // The same queries served request-by-request through the request-oriented
    // front-end (`a3_core::serve`): the scheduler forms the batch, and every
    // response stays bit-identical to a direct per-query backend call. See
    // examples/request_serving.rs for the full deadline/batch-window sweep.
    let backend = ApproximateBackend::conservative();
    let reference = backend
        .prepare(&memory.keys, &memory.values)
        .expect("valid shapes");
    let mut server = AttentionServer::builder(Box::new(ApproximateBackend::conservative()))
        .batch_policy(BatchPolicy::new(queries.len().max(1), 1_000).expect("max_batch >= 1"))
        .build();
    let session = server
        .register(MemoryConfig::new(&memory.keys, &memory.values))
        .expect("valid shapes");
    for (i, query) in queries.iter().enumerate() {
        server
            .submit(Request::new(session, query.clone(), i as u64))
            .expect("registered session");
    }
    let mut responses: Vec<_> = server
        .flush_all(queries.len() as u64)
        .expect("valid batches")
        .into_iter()
        .flat_map(|b| b.responses)
        .collect();
    responses.sort_by_key(|r| r.request);
    assert_eq!(responses.len(), queries.len());
    for (query, response) in queries.iter().zip(&responses) {
        let direct = backend
            .attend_prepared(&reference, query)
            .expect("valid shapes");
        assert_eq!(response.result, direct, "server output diverged");
    }
    println!(
        "request front-end: {} responses through AttentionServer, bit-identical \
         to direct per-query calls",
        responses.len()
    );
}
