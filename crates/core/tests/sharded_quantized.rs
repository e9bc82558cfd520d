//! The quantized backend's fused sharded query against its per-shard oracle:
//! every served result must equal `merge_partial_softmax` over the shards'
//! own `attend_prepared` results, bit for bit, and every error must be the one
//! the per-shard path returns first.

use a3_core::attention::AttentionResult;
use a3_core::backend::{
    merge_partial_softmax, ComputeBackend, ExactBackend, MemoryCache, QuantizedBackend, ShardPlan,
    ShardedMemory,
};
use a3_core::{AttentionError, Matrix};
use a3_fixed::QFormat;

/// `rows` seeded rows of width `d`, values in `[-scale, scale)`.
fn seeded(rows: usize, d: usize, seed: u64, scale: f32) -> Matrix {
    Matrix::from_flat(
        (0..rows * d)
            .map(|i| {
                let h = (i as u64 ^ seed.rotate_left(17))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed)
                    .wrapping_mul(0xD6E8_FEB8_6659_FD93);
                ((h >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * scale
            })
            .collect(),
        rows,
        d,
    )
    .unwrap()
}

/// The per-shard path the fused query must reproduce: each shard's
/// `attend_prepared` in shard order (the first error wins), then the merge.
fn oracle(
    backend: &dyn ComputeBackend,
    memory: &ShardedMemory,
    query: &[f32],
) -> Result<AttentionResult, AttentionError> {
    let partials = memory
        .shards()
        .iter()
        .map(|shard| backend.attend_prepared(shard.memory(), query))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(merge_partial_softmax(memory, &partials))
}

/// Checks three seeded queries, one of them scaled past the input format so
/// its raws saturate, against the oracle.
fn assert_matches_oracle(backend: &dyn ComputeBackend, memory: &ShardedMemory, label: &str) {
    let d = memory.d();
    for (seed, scale) in [(1, 1.5), (2, 0.25), (3, 40.0)] {
        let query = seeded(1, d, 1000 + seed, scale).row(0).to_vec();
        assert_eq!(
            backend.attend_sharded(memory, &query),
            oracle(backend, memory, &query),
            "{label} query {seed}"
        );
    }
}

/// A `k`-shard memory of width `d` grown by appends, through exactly one
/// rebalance for `k >= 3` (two shards never rebalance: the tail cannot
/// exceed twice the balanced share), with uneven shards and `rows mod 8 != 0`
/// in every shard. The starting size and the append chunk are searched so
/// that the last condition holds.
fn uneven_memory(backend: &dyn ComputeBackend, k: usize, d: usize) -> ShardedMemory {
    let plan = ShardPlan::new(k).unwrap();
    let seed = (k * 100 + d) as u64;
    for (n0, chunk) in (13 * k + 1..14 * k).flat_map(|n0| (1..=16).map(move |c| (n0, c))) {
        let mut cache = MemoryCache::new(16);
        let keys = seeded(n0, d, seed, 2.0);
        let values = seeded(n0, d, seed + 1, 2.0);
        let (mut memory, _) =
            ShardedMemory::prepare_cached(backend, plan, &mut cache, &keys, &values).unwrap();
        let mut rebalances = 0;
        let mut step = 0u64;
        let mut append = |memory: &mut ShardedMemory| {
            step += 1;
            let rows = (
                seeded(chunk, d, seed ^ (step << 8), 2.0),
                seeded(chunk, d, seed ^ (step << 9), 2.0),
            );
            let stats = memory
                .append_rows_cached(backend, &mut cache, &rows.0, &rows.1)
                .unwrap();
            u32::from(stats.rebalanced)
        };
        while k > 2 && rebalances == 0 {
            rebalances += append(&mut memory);
        }
        // Grow the tail again, so the shards are uneven once more.
        for _ in 0..3 {
            rebalances += append(&mut memory);
        }
        let sizes: Vec<usize> = memory.shards().iter().map(|s| s.rows()).collect();
        let uneven = sizes.iter().max() != sizes.iter().min();
        if rebalances == u32::from(k > 2) && uneven && sizes.iter().all(|rows| rows % 8 != 0) {
            return memory;
        }
    }
    panic!("no append chunk gives k={k} d={d} shards with n mod 8 != 0");
}

#[test]
fn fused_sharded_query_matches_the_per_shard_oracle_bit_for_bit() {
    let backend = QuantizedBackend::paper();
    for k in 2..=8 {
        for d in [1, 7, 8, 9, 16, 17, 31, 33, 63, 64] {
            let memory = uneven_memory(&backend, k, d);
            assert_eq!(memory.shard_count(), k);
            assert_matches_oracle(&backend, &memory, &format!("k={k} d={d}"));
        }
    }
}

#[test]
fn fused_sharded_query_matches_the_oracle_in_its_edge_cases() {
    let backend = QuantizedBackend::paper();

    // Shard 0's keys agree with the query and the others' oppose it: their
    // rescale factors `exp(max_s - M)` underflow to zero, and so do all of
    // their merged weights.
    let (n, d) = (4 * 37, 64);
    let keys = Matrix::from_flat(
        (0..n * d)
            .map(|i| if i < 37 * d { 4.0 } else { -4.0 })
            .collect(),
        n,
        d,
    )
    .unwrap();
    let values = seeded(n, d, 5, 2.0);
    let plan = ShardPlan::new(4).unwrap();
    let memory = ShardedMemory::prepare(&backend, plan, &keys, &values).unwrap();
    let query = vec![4.0; d];
    let merged = backend.attend_sharded(&memory, &query).unwrap();
    assert_eq!(Ok(merged.clone()), oracle(&backend, &memory, &query));
    assert!(merged.weights[37..].iter().all(|&w| w == 0.0));
    assert_matches_oracle(&backend, &memory, "underflowing shards");

    // Input format Q4.0: the score format has no fraction bits, so every
    // shard's exponent sum is zero and every weight is zero. The format lies
    // outside the vector grid, so this runs the per-shard path.
    let integral = QuantizedBackend::new(QFormat::new(4, 0));
    let memory = ShardedMemory::prepare(&integral, plan, &keys, &values).unwrap();
    let merged = integral.attend_sharded(&memory, &query).unwrap();
    assert!(merged.weights.iter().all(|&w| w == 0.0));
    assert_matches_oracle(&integral, &memory, "zero exponent sums");

    // One shard past 512 rows: 300 + 300 rows, then 250 appended to the tail
    // (no rebalance below twice the balanced share). The tail leaves the
    // vector grid at 513 rows, so the query falls back to the per-shard path.
    let (n0, d) = (600, 16);
    let mut cache = MemoryCache::new(8);
    let (mut memory, _) = ShardedMemory::prepare_cached(
        &backend,
        ShardPlan::new(2).unwrap(),
        &mut cache,
        &seeded(n0, d, 7, 2.0),
        &seeded(n0, d, 8, 2.0),
    )
    .unwrap();
    for step in 0..25 {
        let stats = memory
            .append_rows_cached(
                &backend,
                &mut cache,
                &seeded(10, d, 100 + step, 2.0),
                &seeded(10, d, 200 + step, 2.0),
            )
            .unwrap();
        assert!(!stats.rebalanced);
        assert_eq!(stats.full_reprepares, 0);
    }
    let rows: Vec<usize> = memory.shards().iter().map(|s| s.rows()).collect();
    assert_eq!(rows, vec![300, 550]);
    let tail = memory.shards()[1].memory().quantized().unwrap();
    assert!(!tail.is_vectorized());
    assert_matches_oracle(&backend, &memory, "one shard past 512 rows");
}

#[test]
fn fused_sharded_query_returns_the_per_shard_paths_first_error() {
    let (n, d) = (45, 12);
    let keys = seeded(n, d, 21, 2.0);
    let values = seeded(n, d, 22, 2.0);
    let query = seeded(1, d, 23, 1.0).row(0).to_vec();
    let plan = ShardPlan::new(3).unwrap();
    let paper = QuantizedBackend::paper();
    let q42 = QuantizedBackend::new(QFormat::new(4, 2));

    // Every shard in another input format.
    let other = ShardedMemory::prepare(&q42, plan, &keys, &values).unwrap();
    let err = paper.attend_sharded(&other, &query).unwrap_err();
    assert!(matches!(
        err,
        AttentionError::InvalidParameter { name: "memory", .. }
    ));
    assert_eq!(Err(err), oracle(&paper, &other, &query));

    // Only the tail in another input format: an append through the other
    // backend re-prepares the tail shard in its own format.
    let mut cache = MemoryCache::new(8);
    let (mut mixed, _) =
        ShardedMemory::prepare_cached(&paper, plan, &mut cache, &keys, &values).unwrap();
    mixed
        .append_rows_cached(
            &q42,
            &mut cache,
            &seeded(1, d, 24, 2.0),
            &seeded(1, d, 25, 2.0),
        )
        .unwrap();
    for backend in [&paper, &q42] {
        let err = backend.attend_sharded(&mixed, &query).unwrap_err();
        assert_eq!(
            Err(err),
            oracle(backend, &mixed, &query),
            "{}",
            backend.name()
        );
    }

    // Shards prepared by another backend, and a query of the wrong width.
    let exact = ShardedMemory::prepare(&ExactBackend, plan, &keys, &values).unwrap();
    assert_eq!(
        paper.attend_sharded(&exact, &query),
        Err(AttentionError::BackendMismatch {
            expected: "quantized",
            actual: "exact",
        })
    );
    assert_eq!(
        oracle(&paper, &exact, &query),
        paper.attend_sharded(&exact, &query)
    );
    let memory = ShardedMemory::prepare(&paper, plan, &keys, &values).unwrap();
    assert_eq!(
        paper.attend_sharded(&memory, &query[1..]),
        Err(AttentionError::DimensionMismatch {
            expected: d,
            actual: d - 1,
        })
    );
}
