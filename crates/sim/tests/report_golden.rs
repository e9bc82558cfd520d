//! Golden bits of every simulator report.
//!
//! The unit tests check the cycle model's formulas and orderings, so a change
//! that moved every entry point the same way would pass them. This suite pins
//! the absolute numbers: one FNV-1a hash over the `Debug` text of every
//! `SimReport`, `ShardedSimReport`, `RequestOutcome` and `TenantReport` the
//! batch entry points produce on fixed memories. `Debug` prints each `f64` in
//! its shortest round-trip form, so a change to any bit of any field moves the
//! hash.
//!
//! Covered, for each configuration paired with the backend it prices: a cold
//! and a warm `run_batch_with`, `aggregate` over `run_query`, sharded batches
//! over 1, 2, 4 and 8 units, the two independent-query functions, a streaming
//! decode, and three `ServerSim` replays (single tenant, multi-tenant under an
//! LRU and a cost-aware cache, and an empty trace).

use std::fmt::Debug;

use a3_core::backend::{ApproximateBackend, ComputeBackend, ExactBackend, QuantizedBackend};
use a3_core::Matrix;
use a3_sim::{
    poisson_arrival_cycles, A3Config, BatchPolicy, CacheAdmission, MemoryCache, MultiUnit,
    PipelineModel, Priority, RateLimit, ServerSim, TenantConfig, TraceRequest,
};

/// The hash every report below reproduces.
const GOLDEN: u64 = 813_700_720_581_567_968;

const D: usize = 64;

/// FNV-1a over the `Debug` text of everything added.
struct Hash(u64);

impl Hash {
    fn add(&mut self, item: &impl Debug) {
        for byte in format!("{item:?}").bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash noise in `[-1, 1)`, element `k` of stream `seed`.
fn noise(k: usize, seed: u64) -> f32 {
    let h = (k as u64 + (seed << 32))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xD6E8_FEB8_6659_FD93);
    (h >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

/// An `n`-row memory of noise, so every query keeps a different number of
/// candidates and the drain sees uneven per-query costs.
fn memory(n: usize, seed: u64) -> (Matrix, Matrix) {
    let keys = Matrix::from_flat((0..n * D).map(|k| noise(k, seed)).collect(), n, D).unwrap();
    (keys.clone(), keys)
}

fn queries(count: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..count)
        .map(|q| (0..D).map(|j| noise(q * D + j, seed)).collect())
        .collect()
}

/// Every configuration paired with a backend whose work it can price.
fn pairs() -> Vec<(A3Config, Box<dyn ComputeBackend>)> {
    vec![
        (A3Config::paper_base(), Box::new(ExactBackend)),
        (A3Config::paper_base(), Box::new(QuantizedBackend::paper())),
        (
            A3Config::paper_conservative(),
            Box::new(ApproximateBackend::conservative()),
        ),
        (
            A3Config::paper_aggressive(),
            Box::new(ApproximateBackend::aggressive()),
        ),
    ]
}

fn hash_batches(hash: &mut Hash, config: A3Config, backend: &dyn ComputeBackend) {
    let model = PipelineModel::new(config);
    let (keys, values) = memory(320, 1);
    let batch = queries(12, 10);
    let mut cache = MemoryCache::new(2);
    hash.add(&model.run_batch_with(backend, &mut cache, &keys, &values, &batch));
    hash.add(&model.run_batch_with(backend, &mut cache, &keys, &values, &batch));

    let costs: Vec<_> = batch
        .iter()
        .map(|q| model.run_query(&keys, &values, q))
        .collect();
    hash.add(&model.aggregate(&costs));
    for units in [1usize, 2, 3, 8, 16] {
        let group = MultiUnit::new(units, config);
        hash.add(&group.independent_queries_drain(&costs));
        hash.add(&group.independent_queries_speedup(&costs).to_bits());
    }
    for units in [1usize, 2, 4, 8] {
        let mut cache = MemoryCache::new(16);
        let group = MultiUnit::new(units, config);
        hash.add(&group.run_sharded_batch(backend, &mut cache, &keys, &values, &batch));
    }

    let (start_keys, start_values) = memory(200, 2);
    let (new_keys, new_values) = memory(6, 3);
    let mut cache = MemoryCache::new(2);
    hash.add(&model.run_streaming_decode(
        &mut cache,
        &start_keys,
        &start_values,
        &new_keys,
        &new_values,
        &queries(6, 11),
    ));
}

fn hash_replays(hash: &mut Hash, config: A3Config, backend: &dyn ComputeBackend) {
    let memories = vec![memory(64, 5), memory(200, 6), memory(320, 7)];
    let arrivals = poisson_arrival_cycles(9, 48, 150.0);
    let trace: Vec<TraceRequest> = arrivals
        .iter()
        .zip(queries(48, 12))
        .enumerate()
        .map(|(i, (&arrival, query))| {
            let request = TraceRequest::new(i % 3, query, arrival);
            if i % 4 == 0 {
                request.with_deadline(arrival + 1_500)
            } else {
                request
            }
        })
        .collect();
    let server = ServerSim::new(
        PipelineModel::new(config),
        BatchPolicy::new(4, 400).unwrap(),
    );

    let (report, outcomes) =
        server.replay_detailed(backend, &mut MemoryCache::new(4), &memories, &trace);
    hash.add(&report);
    hash.add(&outcomes);

    let tenants = [
        TenantConfig::new(Priority::High),
        TenantConfig::new(Priority::Background).with_rate_limit(RateLimit::new(1, 400, 3).unwrap()),
    ];
    for admission in [CacheAdmission::Lru, CacheAdmission::CostAware] {
        let mut cache = MemoryCache::with_admission(2, admission);
        hash.add(&server.replay_multi_tenant(
            backend,
            &mut cache,
            &memories,
            &[0, 1, 1],
            &tenants,
            &trace,
        ));
    }

    hash.add(&server.replay_multi_tenant(
        backend,
        &mut MemoryCache::new(1),
        &memories,
        &[0, 1, 1],
        &tenants,
        &[],
    ));
}

#[test]
fn every_report_matches_the_golden_hash() {
    let mut hash = Hash(0xcbf2_9ce4_8422_2325);
    for (config, backend) in pairs() {
        hash_batches(&mut hash, config, backend.as_ref());
        hash_replays(&mut hash, config, backend.as_ref());
    }
    assert_eq!(hash.0, GOLDEN, "a simulated number moved: {}", hash.0);
}
