//! Property-based tests for incremental prepare: random append/update traces
//! must leave every backend's prepared memory exactly equivalent to a fresh
//! prepare of the final matrices, for whole memories and for every shard
//! count, with delta fingerprints that match the from-scratch fingerprint.

use std::sync::{Arc, Weak};

use a3_core::approx::preprocess_count;
use a3_core::attention::AttentionResult;
use a3_core::backend::{
    fingerprint_append, fingerprint_update, memory_fingerprint, ApproximateBackend, ComputeBackend,
    ExactBackend, MemoryCache, PreparedMemory, QuantizedBackend, ShardPlan, ShardedMemory,
};
use a3_core::serve::{AttentionServer, BatchPolicy, MemoryConfig, Request, SessionId};
use a3_core::Matrix;
use proptest::prelude::*;

mod common;
use common::{all_backends, seeded_rows};

/// One trace step: `kind` selects append (0) or update (1), `rows` carries the
/// generated (key, value) row pairs (appends use all of them, updates use the
/// first), and `select` picks the updated row index modulo the current size.
type TraceOp = (u8, Vec<(Vec<f32>, Vec<f32>)>, u32);

/// Strategy producing an initial memory, a random mutation trace over it, and
/// a probe query: `n` in 2..10, `d` in 1..6, 1 to 5 trace steps of 1 to 3 rows.
#[allow(clippy::type_complexity)]
fn streaming_trace() -> impl Strategy<Value = (Matrix, Matrix, Vec<TraceOp>, Vec<f32>)> {
    (2usize..10, 1usize..6).prop_flat_map(|(n, d)| {
        (
            prop::collection::vec(prop::collection::vec(-2.0f32..2.0, d..=d), n..=n),
            prop::collection::vec(prop::collection::vec(-2.0f32..2.0, d..=d), n..=n),
            prop::collection::vec(
                (
                    0u8..2,
                    prop::collection::vec(
                        (
                            prop::collection::vec(-2.0f32..2.0, d..=d),
                            prop::collection::vec(-2.0f32..2.0, d..=d),
                        ),
                        1..4,
                    ),
                    0u32..10_000,
                ),
                1..6,
            ),
            prop::collection::vec(-2.0f32..2.0, d..=d),
        )
            .prop_map(|(k, v, ops, q)| {
                (
                    Matrix::from_rows(k).unwrap(),
                    Matrix::from_rows(v).unwrap(),
                    ops,
                    q,
                )
            })
    })
}

/// Splits a trace step's row pairs into a (keys, values) matrix pair.
fn rows_to_matrices(rows: &[(Vec<f32>, Vec<f32>)]) -> (Matrix, Matrix) {
    let keys = Matrix::from_rows(rows.iter().map(|(k, _)| k.clone()).collect()).unwrap();
    let values = Matrix::from_rows(rows.iter().map(|(_, v)| v.clone()).collect()).unwrap();
    (keys, values)
}

proptest! {
    /// Whole-memory contract: replaying any append/update trace through
    /// [`ComputeBackend::append_rows`] / [`ComputeBackend::update_row`] leaves
    /// the prepared memory attending bit-identically to a fresh
    /// [`ComputeBackend::prepare`] of the final matrices, for every backend,
    /// and the delta fingerprint chain lands on the from-scratch fingerprint.
    #[test]
    fn incremental_trace_matches_fresh_prepare((keys, values, ops, query) in streaming_trace()) {
        for backend in all_backends() {
            let mut memory = backend.prepare(&keys, &values).unwrap();
            let mut fingerprint = memory_fingerprint(&keys, &values);
            let mut mirror_keys: Vec<Vec<f32>> =
                (0..keys.rows()).map(|r| keys.row(r).to_vec()).collect();
            let mut mirror_values: Vec<Vec<f32>> =
                (0..values.rows()).map(|r| values.row(r).to_vec()).collect();
            for (kind, rows, select) in &ops {
                if *kind == 0 {
                    let (new_keys, new_values) = rows_to_matrices(rows);
                    fingerprint = fingerprint_append(
                        fingerprint,
                        mirror_keys.len(),
                        keys.dim(),
                        &new_keys,
                        &new_values,
                    );
                    backend.append_rows(&mut memory, &new_keys, &new_values).unwrap();
                    for (k, v) in rows {
                        mirror_keys.push(k.clone());
                        mirror_values.push(v.clone());
                    }
                } else {
                    let row = *select as usize % mirror_keys.len();
                    let (key, value) = &rows[0];
                    fingerprint = fingerprint_update(
                        fingerprint,
                        row,
                        &mirror_keys[row],
                        &mirror_values[row],
                        key,
                        value,
                    );
                    backend.update_row(&mut memory, row, key, value).unwrap();
                    mirror_keys[row].clone_from(key);
                    mirror_values[row].clone_from(value);
                }
            }
            let final_keys = Matrix::from_rows(mirror_keys.clone()).unwrap();
            let final_values = Matrix::from_rows(mirror_values.clone()).unwrap();
            prop_assert_eq!(memory.n(), final_keys.rows());
            prop_assert_eq!(memory.keys().as_slice(), final_keys.as_slice());
            prop_assert_eq!(memory.values().as_slice(), final_values.as_slice());
            prop_assert_eq!(fingerprint, memory_fingerprint(&final_keys, &final_values));
            let fresh = backend.prepare(&final_keys, &final_values).unwrap();
            prop_assert_eq!(
                backend.attend_prepared(&memory, &query).unwrap(),
                backend.attend_prepared(&fresh, &query).unwrap()
            );
        }
    }

    /// Sharded contract for 1 to 4 shards: replaying the trace through
    /// [`ShardedMemory::append_rows_cached`] / [`ShardedMemory::update_row_cached`]
    /// keeps every shard bit-identical to a fresh prepare of its own row range
    /// (whatever layout the appends and rebalances produced), with per-shard
    /// fingerprints that match the from-scratch fingerprints of the submatrices.
    /// The same trace replayed on a server session of the same shard count
    /// keeps the session's fingerprint, which a sharded session derives from
    /// its shards' stored row hashes, equal to the from-scratch fingerprint of
    /// the whole memory after the registration and after every append
    /// (rebalancing or not) and update.
    #[test]
    fn sharded_trace_matches_fresh_prepare_per_shard(
        (keys, values, ops, query) in streaming_trace(),
        shards in 1usize..5,
    ) {
        let backends: [fn() -> Box<dyn ComputeBackend>; 3] = [
            || Box::new(ExactBackend),
            || Box::new(ApproximateBackend::conservative()),
            || Box::new(QuantizedBackend::paper()),
        ];
        for make_backend in backends {
            let backend = make_backend();
            let plan = ShardPlan::new(shards).unwrap();
            let mut cache = MemoryCache::new(16);
            let (mut sharded, _) =
                ShardedMemory::prepare_cached(backend.as_ref(), plan, &mut cache, &keys, &values)
                    .unwrap();
            let mut server = AttentionServer::builder(make_backend()).build();
            let session = server
                .register(MemoryConfig::new(&keys, &values).sharded(shards))
                .unwrap();
            let mut mirror_keys: Vec<Vec<f32>> =
                (0..keys.rows()).map(|r| keys.row(r).to_vec()).collect();
            let mut mirror_values: Vec<Vec<f32>> =
                (0..values.rows()).map(|r| values.row(r).to_vec()).collect();
            let whole_fingerprint = |keys: &[Vec<f32>], values: &[Vec<f32>]| {
                memory_fingerprint(
                    &Matrix::from_rows(keys.to_vec()).unwrap(),
                    &Matrix::from_rows(values.to_vec()).unwrap(),
                )
            };
            prop_assert_eq!(
                server.session(session).unwrap().fingerprint(),
                whole_fingerprint(&mirror_keys, &mirror_values)
            );
            for (kind, rows, select) in &ops {
                let mutation = if *kind == 0 {
                    let (new_keys, new_values) = rows_to_matrices(rows);
                    sharded
                        .append_rows_cached(backend.as_ref(), &mut cache, &new_keys, &new_values)
                        .unwrap();
                    for (k, v) in rows {
                        mirror_keys.push(k.clone());
                        mirror_values.push(v.clone());
                    }
                    server.append_to_session(session, &new_keys, &new_values).unwrap()
                } else {
                    let row = *select as usize % mirror_keys.len();
                    let (key, value) = &rows[0];
                    sharded
                        .update_row_cached(backend.as_ref(), &mut cache, row, key, value)
                        .unwrap();
                    mirror_keys[row].clone_from(key);
                    mirror_values[row].clone_from(value);
                    server.update_session_row(session, row, key, value).unwrap()
                };
                let expected = whole_fingerprint(&mirror_keys, &mirror_values);
                prop_assert_eq!(mutation.fingerprint, expected);
                prop_assert_eq!(server.session(session).unwrap().fingerprint(), expected);
            }
            prop_assert_eq!(sharded.n(), mirror_keys.len());
            let covered: usize = sharded.shards().iter().map(|s| s.rows()).sum();
            prop_assert_eq!(covered, mirror_keys.len());
            for shard in sharded.shards() {
                let sub_keys = Matrix::from_rows(
                    mirror_keys[shard.start()..shard.end()].to_vec(),
                ).unwrap();
                let sub_values = Matrix::from_rows(
                    mirror_values[shard.start()..shard.end()].to_vec(),
                ).unwrap();
                prop_assert_eq!(shard.fingerprint(), memory_fingerprint(&sub_keys, &sub_values));
                let fresh = backend.prepare(&sub_keys, &sub_values).unwrap();
                prop_assert_eq!(
                    backend.attend_prepared(shard.memory(), &query).unwrap(),
                    backend.attend_prepared(&fresh, &query).unwrap()
                );
            }
        }
    }
}

/// Regression pin for cache churn under a mutate/re-register loop: streaming
/// appends keep the cache entry current (a cache *update*), so re-registering
/// the grown memory is always a hit and the sorted preprocessing pass runs
/// exactly once — the delta-fingerprint path does zero full re-prepares.
#[test]
fn mutate_reregister_churn_stays_on_the_delta_path() {
    let d = 8;
    let keys = Matrix::from_rows(
        (0..12)
            .map(|r| (0..d).map(|c| ((r * d + c) as f32).sin()).collect())
            .collect(),
    )
    .unwrap();
    let values = Matrix::from_rows(
        (0..12)
            .map(|r| (0..d).map(|c| ((r * d + c) as f32).cos()).collect())
            .collect(),
    )
    .unwrap();
    let sorts_before = preprocess_count();
    let mut server = AttentionServer::builder(Box::new(ApproximateBackend::conservative()))
        .batch_policy(BatchPolicy::per_request())
        .cache_capacity(4)
        .build();
    let session = server.register(MemoryConfig::new(&keys, &values)).unwrap();

    let mut grown_keys: Vec<Vec<f32>> = (0..keys.rows()).map(|r| keys.row(r).to_vec()).collect();
    let mut grown_values: Vec<Vec<f32>> =
        (0..values.rows()).map(|r| values.row(r).to_vec()).collect();
    for step in 0..5 {
        let key: Vec<f32> = (0..d)
            .map(|c| ((step * d + c) as f32 * 0.37).sin())
            .collect();
        let value: Vec<f32> = (0..d)
            .map(|c| ((step * d + c) as f32 * 0.53).cos())
            .collect();
        let new_keys = Matrix::from_rows(vec![key.clone()]).unwrap();
        let new_values = Matrix::from_rows(vec![value.clone()]).unwrap();
        let mutation = server
            .append_to_session(session, &new_keys, &new_values)
            .unwrap();
        assert_eq!(
            mutation.full_reprepares, 0,
            "streaming append fell back to a full re-prepare at step {step}"
        );
        grown_keys.push(key);
        grown_values.push(value);

        // Re-registering the grown memory must find the *updated* cache entry.
        let gk = Matrix::from_rows(grown_keys.clone()).unwrap();
        let gv = Matrix::from_rows(grown_values.clone()).unwrap();
        let reregistered = server.register(MemoryConfig::new(&gk, &gv)).unwrap();
        let handle = server.session(reregistered).unwrap();
        assert!(
            handle.reused_preparation(),
            "re-registration missed the cache at step {step}"
        );
    }

    // One initial miss, five re-registration hits, five in-place updates, and
    // exactly one full sorted-preprocessing pass for the whole loop.
    assert_eq!(server.cache().misses(), 1);
    assert_eq!(server.cache().hits(), 5);
    assert_eq!(server.cache().updates(), 5);
    assert_eq!(
        preprocess_count() - sorts_before,
        1,
        "churn loop should never re-run the full sorted prepare"
    );
}

/// Regression pin: a rejected append or row update must leave the session's
/// cache entry resident. The shapes are checked before the entry is taken out
/// for the in-place mutation, so the next good append is still a cache
/// *update* and the cache keeps every entry, for whole and sharded sessions.
#[test]
fn rejected_mutations_keep_the_sessions_cache_entry() {
    let (n, d) = (16, 8);
    let keys = Matrix::from_rows(
        (0..n)
            .map(|r| (0..d).map(|c| ((r * d + c) as f32 * 0.3).sin()).collect())
            .collect(),
    )
    .unwrap();
    let values = Matrix::from_rows(
        (0..n)
            .map(|r| (0..d).map(|c| ((r * d + c) as f32 * 0.7).cos()).collect())
            .collect(),
    )
    .unwrap();
    let good_key = Matrix::from_rows(vec![vec![0.25; d]]).unwrap();
    let good_value = Matrix::from_rows(vec![vec![-0.5; d]]).unwrap();
    let narrow = Matrix::from_rows(vec![vec![0.5; d - 1]]).unwrap();
    for shards in [1, 4] {
        let mut server = AttentionServer::builder(Box::new(QuantizedBackend::paper()))
            .batch_policy(BatchPolicy::per_request())
            .cache_capacity(8)
            .build();
        let session = server
            .register(MemoryConfig::new(&keys, &values).sharded(shards))
            .unwrap();
        let entries = server.cache().len();
        assert_eq!(entries, shards, "one entry per shard");

        let rejected = server.append_to_session(session, &narrow, &narrow);
        assert!(
            rejected.is_err(),
            "{shards} shard(s): narrow append accepted"
        );
        let rejected = server.update_session_row(session, 3, &[0.5; 7], &[0.5; 7]);
        assert!(
            rejected.is_err(),
            "{shards} shard(s): narrow update accepted"
        );
        assert_eq!(server.cache().len(), entries, "{shards} shard(s)");

        let updates = server.cache().updates();
        let mutation = server
            .append_to_session(session, &good_key, &good_value)
            .unwrap();
        assert!(!mutation.rebalanced);
        assert_eq!(
            server.cache().updates(),
            updates + 1,
            "{shards} shard(s): the good append was not a cache update"
        );
        assert_eq!(server.cache().len(), entries, "{shards} shard(s)");
    }
}

/// Walks a quantized memory from 1 to 600 rows, across every power-of-two
/// boundary (512 -> 513, where the paper format leaves the vector datapath's
/// grid, included), one row at a time and in chunks that jump several
/// boundaries at once. After every append the memory must attend exactly as
/// a fresh prepare of the grown matrices does, carry the same datapath and
/// format plan, and report an incremental append: the vector and the
/// scalar-pinned backend report the same stats, none of them a re-prepare.
#[test]
fn quantized_appends_stay_incremental_across_every_power_of_two() {
    let walks: [&[usize]; 3] = [&[1], &[1, 2, 5, 13, 40, 100, 250], &[37, 100, 300, 162]];
    for d in [8, 64] {
        let keys = seeded_rows(600, d, 11);
        let values = seeded_rows(600, d, 12);
        let query: Vec<f32> = seeded_rows(1, d, 13).row(0).to_vec();
        for chunks in walks {
            let mut stats = Vec::new();
            for backend in [QuantizedBackend::paper(), QuantizedBackend::paper_scalar()] {
                let first = |m: &Matrix, rows: usize| {
                    Matrix::from_flat(m.as_slice()[..rows * d].to_vec(), rows, d).unwrap()
                };
                let mut memory = backend
                    .prepare(&first(&keys, 1), &first(&values, 1))
                    .unwrap();
                let mut walk = Vec::new();
                let mut n = 1;
                for &chunk in chunks.iter().cycle() {
                    if n == 600 {
                        break;
                    }
                    let end = (n + chunk).min(600);
                    let rows = |m: &Matrix| {
                        Matrix::from_flat(m.as_slice()[n * d..end * d].to_vec(), end - n, d)
                            .unwrap()
                    };
                    let step = backend
                        .append_rows(&mut memory, &rows(&keys), &rows(&values))
                        .unwrap();
                    assert!(
                        !step.full_reprepare,
                        "{} d={d}: {n} -> {end}",
                        backend.name()
                    );
                    walk.push(step);
                    n = end;

                    let fresh = backend
                        .prepare(&first(&keys, n), &first(&values, n))
                        .unwrap();
                    let (grown, built) = (memory.quantized().unwrap(), fresh.quantized().unwrap());
                    assert_eq!(grown.is_vectorized(), built.is_vectorized(), "d={d} n={n}");
                    assert_eq!(grown.formats(), built.formats(), "d={d} n={n}");
                    assert_eq!(
                        memory.preprocess_ops(),
                        fresh.preprocess_ops(),
                        "d={d} n={n}"
                    );
                    assert_eq!(
                        backend.attend_prepared(&memory, &query).unwrap(),
                        backend.attend_prepared(&fresh, &query).unwrap(),
                        "{} d={d} n={n}",
                        backend.name()
                    );
                }
                stats.push(walk);
            }
            assert_eq!(stats[0], stats[1], "d={d} chunks {chunks:?}");
        }
    }
}

/// Runs one query against a server session and returns its result.
fn answer(server: &mut AttentionServer, session: SessionId, query: &[f32]) -> AttentionResult {
    server
        .submit(Request::new(session, query.to_vec(), 0))
        .unwrap();
    let mut batches = server.flush_all(0).unwrap();
    batches.remove(0).responses.remove(0).result
}

/// A rebalance keeps in the cache only the shards it serves. A 4-shard
/// session grows one row at a time until an append re-splits it. That
/// append moves the cache's update count by one (the tail's append) and its
/// miss count by the four new shards, and releases the four replaced
/// shards' entries: the cache holds one entry per shard, and nothing keeps
/// a replaced shard's preparation alive. The session answers exactly like a
/// fresh sharded prepare of the grown memory. When a second session was
/// registered on the same memory before the growth, the cache forgets the
/// shards the two shared too, but the second session keeps them and its
/// answers.
#[test]
fn a_rebalance_releases_the_shards_it_replaced() {
    let (n, d, shards) = (32, 16, 4);
    let keys = seeded_rows(n + 64, d, 21);
    let values = seeded_rows(n + 64, d, 22);
    let query = seeded_rows(1, d, 23).row(0).to_vec();
    let first = |m: &Matrix, rows: usize| {
        Matrix::from_flat(m.as_slice()[..rows * d].to_vec(), rows, d).unwrap()
    };
    let (start_keys, start_values) = (first(&keys, n), first(&values, n));
    let config = MemoryConfig::new(&start_keys, &start_values).sharded(shards);
    let backends: [fn() -> Box<dyn ComputeBackend>; 2] = [
        || Box::new(QuantizedBackend::paper()),
        || Box::new(ExactBackend),
    ];
    for backend in backends {
        for with_shared in [false, true] {
            let name = format!("{} shared={with_shared}", backend().name());
            let mut server = AttentionServer::builder(backend())
                .batch_policy(BatchPolicy::per_request())
                .build();
            let grown = server.register(config).unwrap();
            let shared = with_shared.then(|| {
                let session = server.register(config).unwrap();
                (session, answer(&mut server, session, &query))
            });

            let mut rows = n;
            loop {
                assert!(rows < n + 64, "{name}: no append rebalanced");
                let replaced: Vec<Weak<PreparedMemory>> = server
                    .session(grown)
                    .unwrap()
                    .memory()
                    .sharded()
                    .unwrap()
                    .shards()
                    .iter()
                    .map(|shard| Arc::downgrade(&shard.memory_arc()))
                    .collect();
                let (updates, misses) = (server.cache().updates(), server.cache().misses());
                let row = |m: &Matrix| Matrix::from_flat(m.row(rows).to_vec(), 1, d).unwrap();
                let mutation = server
                    .append_to_session(grown, &row(&keys), &row(&values))
                    .unwrap();
                rows += 1;
                if !mutation.rebalanced {
                    continue;
                }
                assert_eq!(server.cache().updates(), updates + 1, "{name}");
                assert_eq!(
                    server.cache().misses(),
                    misses + shards as u64,
                    "{name}: every re-split shard is a new preparation"
                );
                assert_eq!(
                    server.cache().len(),
                    shards,
                    "{name}: the cache holds the live shards only"
                );
                if shared.is_none() {
                    assert!(
                        replaced.iter().all(|shard| shard.upgrade().is_none()),
                        "{name}: a replaced shard's preparation is still alive"
                    );
                }
                break;
            }

            let fresh = ShardedMemory::prepare(
                server.backend(),
                ShardPlan::new(shards).unwrap(),
                &first(&keys, rows),
                &first(&values, rows),
            )
            .unwrap();
            let want = server.backend().attend_sharded(&fresh, &query).unwrap();
            assert_eq!(answer(&mut server, grown, &query), want, "{name}");
            if let Some((session, before)) = shared {
                assert_eq!(server.session(session).unwrap().memory().n(), n, "{name}");
                assert_eq!(
                    answer(&mut server, session, &query),
                    before,
                    "{name}: the session sharing the replaced shards changed"
                );
            }
        }
    }
}
