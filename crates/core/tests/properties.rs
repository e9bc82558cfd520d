//! Property-based tests for the attention and approximation algorithms.

use a3_core::approx::{
    post_scoring_select, preprocess_count, select_candidates, select_candidates_naive,
    ApproxAttentionOutput, ApproxConfig, SortedKeyColumns,
};
use a3_core::attention::{attention_with_scores, stable_softmax};
use a3_core::backend::{
    ApproximateBackend, ComputeBackend, ExactBackend, MemoryCache, QuantizedBackend, ShardPlan,
    ShardedMemory, SimdBackend,
};
use a3_core::quantized::QuantizedMemory;
use a3_core::serve::{AttentionServer, BatchPolicy, MemoryConfig, Request, Response};
use a3_core::Matrix;
use a3_fixed::QFormat;
use proptest::prelude::*;

mod common;
use common::all_backends;

/// Input formats for the quantized vector-vs-scalar differential tests: the
/// paper's `Q4.4`, the quantization-study formats, and `Q5.3`. On AVX2 hosts
/// each runs the vector datapath on most `simd_case` shapes; `d > 64` (outside
/// the proved grid) and `Q4.6` at `d > 32` (exponent tables too wide to
/// materialize) stay scalar, where the property holds trivially.
fn quantized_format() -> impl Strategy<Value = QFormat> {
    (0usize..4).prop_map(|i| match i {
        0 => QFormat::new(4, 4),
        1 => QFormat::new(4, 2),
        2 => QFormat::new(4, 6),
        _ => QFormat::new(5, 3),
    })
}

/// Strategy producing a random (keys, values, query) triple with `n` in 2..40 and
/// `d` in 1..16.
fn attention_case() -> impl Strategy<Value = (Matrix, Matrix, Vec<f32>)> {
    (2usize..40, 1usize..16).prop_flat_map(|(n, d)| {
        (
            prop::collection::vec(prop::collection::vec(-2.0f32..2.0, d..=d), n..=n),
            prop::collection::vec(prop::collection::vec(-2.0f32..2.0, d..=d), n..=n),
            prop::collection::vec(-2.0f32..2.0, d..=d),
        )
            .prop_map(|(k, v, q)| {
                (
                    Matrix::from_rows(k).unwrap(),
                    Matrix::from_rows(v).unwrap(),
                    q,
                )
            })
    })
}

/// Prepares the memory under `config` and attends `query` with the detailed output.
fn attend_detailed(
    config: ApproxConfig,
    keys: &Matrix,
    values: &Matrix,
    query: &[f32],
) -> ApproxAttentionOutput {
    let backend = ApproximateBackend::new(config);
    let memory = backend.prepare(keys, values).unwrap();
    backend.attend_detailed(&memory, query).unwrap()
}

/// Strategy producing a random (keys, values, queries) batch with `n` in 2..24,
/// `d` in 1..12 and 0 to 4 queries (the empty batch is a legal input).
fn batch_case() -> impl Strategy<Value = (Matrix, Matrix, Vec<Vec<f32>>)> {
    (2usize..24, 1usize..12, 0usize..5).prop_flat_map(|(n, d, b)| {
        (
            prop::collection::vec(prop::collection::vec(-2.0f32..2.0, d..=d), n..=n),
            prop::collection::vec(prop::collection::vec(-2.0f32..2.0, d..=d), n..=n),
            prop::collection::vec(prop::collection::vec(-2.0f32..2.0, d..=d), b..=b),
        )
            .prop_map(|(k, v, qs)| {
                (
                    Matrix::from_rows(k).unwrap(),
                    Matrix::from_rows(v).unwrap(),
                    qs,
                )
            })
    })
}

/// One generated serving request: a query, the tick gap since the previous
/// arrival, and an optional deadline slack after arrival (`has_deadline == 1`).
type GeneratedRequest = (Vec<f32>, u64, u8, u64);

/// Strategy producing a full serving scenario: one memory, a stream of 0 to 7
/// deadline-tagged requests, and a dynamic-batching policy. Tight deadline slacks
/// and small windows force partial deadline/window flushes; `max_batch` down to 1
/// exercises per-request serving, and the empty request stream exercises the
/// empty-batch flush.
#[allow(clippy::type_complexity)]
fn serving_scenario() -> impl Strategy<Value = (Matrix, Matrix, Vec<GeneratedRequest>, usize, u64)>
{
    (2usize..24, 1usize..10, 0usize..8).prop_flat_map(|(n, d, b)| {
        (
            prop::collection::vec(prop::collection::vec(-2.0f32..2.0, d..=d), n..=n),
            prop::collection::vec(prop::collection::vec(-2.0f32..2.0, d..=d), n..=n),
            prop::collection::vec(
                (
                    prop::collection::vec(-2.0f32..2.0, d..=d),
                    0u64..40,
                    0u8..2,
                    0u64..50,
                ),
                b..=b,
            ),
            1usize..5,
            0u64..120,
        )
            .prop_map(|(k, v, requests, max_batch, window)| {
                (
                    Matrix::from_rows(k).unwrap(),
                    Matrix::from_rows(v).unwrap(),
                    requests,
                    max_batch,
                    window,
                )
            })
    })
}

/// Strategy producing a random (keys, values, query) triple spanning the SIMD
/// kernels' awkward shapes: `n` from 1 (single row) to 48 and `d` from 1 to 72, so
/// every `d % 8` tail length and sub-lane dimension is exercised.
fn simd_case() -> impl Strategy<Value = (Matrix, Matrix, Vec<f32>)> {
    (1usize..48, 1usize..72).prop_flat_map(|(n, d)| {
        (
            prop::collection::vec(prop::collection::vec(-1.0f32..1.0, d..=d), n..=n),
            prop::collection::vec(prop::collection::vec(-1.0f32..1.0, d..=d), n..=n),
            prop::collection::vec(-1.0f32..1.0, d..=d),
        )
            .prop_map(|(k, v, q)| {
                (
                    Matrix::from_rows(k).unwrap(),
                    Matrix::from_rows(v).unwrap(),
                    q,
                )
            })
    })
}

/// A single-row memory collapses to one shard under any plan, so the sharded path
/// must stay bit-identical to the unsharded one for every backend (the degenerate
/// case of the K = 1 contract).
#[test]
fn single_row_memory_shards_bit_identically() {
    let keys = Matrix::from_rows(vec![vec![0.7, -0.3, 0.1]]).unwrap();
    let values = Matrix::from_rows(vec![vec![-0.2, 0.5, 0.9]]).unwrap();
    let query = [1.0, 0.5, -0.5];
    for backend in all_backends() {
        for shards in [1, 2, 8] {
            let sharded = ShardedMemory::prepare(
                backend.as_ref(),
                ShardPlan::new(shards).unwrap(),
                &keys,
                &values,
            )
            .unwrap();
            assert_eq!(sharded.shard_count(), 1);
            assert_eq!(
                backend.attend_sharded(&sharded, &query).unwrap(),
                backend.attend(&keys, &values, &query).unwrap(),
                "{} with {shards} requested shards",
                backend.name()
            );
        }
    }
}

/// The backends the serving front-end must serve bit-identically.
fn served_backends() -> Vec<Box<dyn ComputeBackend>> {
    vec![
        Box::new(ExactBackend),
        Box::new(SimdBackend::new()),
        Box::new(ApproximateBackend::conservative()),
        Box::new(QuantizedBackend::paper()),
        Box::new(QuantizedBackend::paper_scalar()),
    ]
}

proptest! {
    /// Softmax output is a probability distribution.
    #[test]
    fn softmax_is_distribution(scores in prop::collection::vec(-30.0f32..30.0, 1..100)) {
        let w = stable_softmax(&scores);
        prop_assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    /// Exact attention output lies inside the convex hull of the value rows
    /// (component-wise bounding box check).
    #[test]
    fn attention_output_in_value_bounding_box((keys, values, query) in attention_case()) {
        let result = attention_with_scores(&keys, &values, &query).unwrap();
        for j in 0..values.dim() {
            let lo = values.column(j).fold(f32::INFINITY, f32::min);
            let hi = values.column(j).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(result.output[j] >= lo - 1e-4);
            prop_assert!(result.output[j] <= hi + 1e-4);
        }
    }

    /// The naive O(nd log nd) candidate search and the efficient preprocessed search are
    /// functionally identical (paper Section IV-C claims functional identity).
    #[test]
    fn naive_and_efficient_candidate_search_agree((keys, _values, query) in attention_case(), m_frac in 0.1f64..1.0) {
        let n = keys.rows();
        let m = ((n as f64) * m_frac).ceil() as usize;
        let sorted = SortedKeyColumns::preprocess(&keys);
        let naive = select_candidates_naive(&keys, &query, m);
        let efficient = select_candidates(&sorted, &query, m);
        prop_assert_eq!(&naive.candidates, &efficient.candidates);
        prop_assert_eq!(naive.iterations, efficient.iterations);
        prop_assert_eq!(naive.min_ops_skipped, efficient.min_ops_skipped);
        for (a, b) in naive.greedy_scores.iter().zip(&efficient.greedy_scores) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Candidate selection with a huge iteration budget assigns a positive greedy score
    /// to the row with the largest true dot product whenever that dot product is
    /// positive.
    #[test]
    fn exhaustive_candidate_selection_finds_best_row((keys, _values, query) in attention_case()) {
        let scores: Vec<f32> = (0..keys.rows()).map(|i| keys.row_dot(i, &query)).collect();
        let (best, &best_score) = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        prop_assume!(best_score > 0.05);
        let sorted = SortedKeyColumns::preprocess(&keys);
        let sel = select_candidates(&sorted, &query, keys.rows() * keys.dim());
        prop_assert!(sel.candidates.contains(&best),
            "best row {} (score {}) not selected; greedy = {:?}", best, best_score, sel.greedy_scores);
    }

    /// Post-scoring selection always keeps the maximum-score row and selects a set whose
    /// size shrinks (weakly) as T grows.
    #[test]
    fn post_scoring_monotone_in_threshold(scores in prop::collection::vec(-10.0f32..10.0, 1..60)) {
        let rows: Vec<usize> = (0..scores.len()).collect();
        let argmax = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let mut prev_len = usize::MAX;
        for t in [1.0, 2.5, 5.0, 10.0, 20.0] {
            let sel = post_scoring_select(&rows, &scores, t);
            prop_assert!(sel.contains(&argmax));
            prop_assert!(sel.len() <= prev_len);
            prev_len = sel.len();
        }
    }

    /// With approximation disabled, the approximate pipeline equals exact attention.
    #[test]
    fn disabled_approximation_is_exact((keys, values, query) in attention_case()) {
        let exact = attention_with_scores(&keys, &values, &query).unwrap();
        let approx = ApproximateBackend::new(ApproxConfig::none())
            .attend(&keys, &values, &query)
            .unwrap();
        for (a, b) in exact.output.iter().zip(&approx.output) {
            prop_assert!((a - b).abs() < 1e-4);
        }
        for (a, b) in exact.weights.iter().zip(&approx.weights) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// The approximate output error is bounded by the total softmax weight of the rows
    /// it dropped (times the value range), and the selected rows' recomputed weights are
    /// always a valid distribution.
    ///
    /// Per output column the error is `(1 - W_S) * (dropped mean - kept mean)`,
    /// with `W_S` the exact softmax mass on the kept rows, so it cannot exceed the
    /// dropped mass times the column's value range.
    #[test]
    fn approximate_weights_form_distribution((keys, values, query) in attention_case()) {
        // Exact softmax in f64, over the f32 scores the approximation computes.
        let scores: Vec<f64> = (0..keys.rows())
            .map(|i| f64::from(keys.row_dot(i, &query)))
            .collect();
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
        let total: f64 = exps.iter().sum();
        let weights: Vec<f64> = exps.iter().map(|e| e / total).collect();
        for config in [ApproxConfig::conservative(), ApproxConfig::aggressive()] {
            let out = attend_detailed(config, &keys, &values, &query);
            let sum: f32 = out.result.weights.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-3);
            prop_assert!(out.work.selected <= out.work.candidates
                || out.work.candidates == 0);
            prop_assert!(out.work.candidates <= keys.rows());
            let omitted = 1.0 - out.selected.iter().map(|&i| weights[i]).sum::<f64>();
            for (j, &approx) in out.result.output.iter().enumerate() {
                let column: Vec<f64> = values.iter_rows().map(|row| f64::from(row[j])).collect();
                let exact: f64 = weights.iter().zip(&column).map(|(w, v)| w * v).sum();
                let lo = column.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let bound = omitted * (hi - lo) + 1e-5;
                let error = (exact - f64::from(approx)).abs();
                prop_assert!(
                    error <= bound,
                    "column {}: error {} exceeds {} (omitted mass {})", j, error, bound, omitted
                );
            }
        }
    }

    /// For every backend, the one-shot batch front-end is bit-identical to
    /// one-shot `attend` per query, in query order (including the empty batch).
    #[test]
    fn batched_front_ends_match_sequential((keys, values, queries) in batch_case()) {
        let query_matrix = if queries.is_empty() {
            Matrix::zeros(0, keys.dim())
        } else {
            Matrix::from_rows(queries.clone()).unwrap()
        };
        for backend in all_backends() {
            let batch = backend.attend_batch(&keys, &values, &query_matrix).unwrap();
            prop_assert_eq!(batch.len(), queries.len());
            for (q, out) in queries.iter().zip(&batch) {
                prop_assert_eq!(out, &backend.attend(&keys, &values, q).unwrap());
            }
        }
    }

    /// Aggressive approximation never selects more entries than conservative
    /// approximation on the same input.
    #[test]
    fn aggressive_selects_no_more_than_conservative((keys, values, query) in attention_case()) {
        let cons = attend_detailed(ApproxConfig::conservative(), &keys, &values, &query);
        let aggr = attend_detailed(ApproxConfig::aggressive(), &keys, &values, &query);
        prop_assert!(aggr.work.candidates <= cons.work.candidates + 1);
    }

    /// For every backend, attending through a prepared memory is bit-identical to the
    /// one-shot `attend`, and the prepared batch path is bit-identical to a sequential
    /// loop — the central contract of the `ComputeBackend` serving layer.
    #[test]
    fn attend_prepared_is_bit_identical_to_attend_for_every_backend(
        (keys, values, query) in attention_case()
    ) {
        for backend in all_backends() {
            let memory = backend.prepare(&keys, &values).unwrap();
            let one_shot = backend.attend(&keys, &values, &query).unwrap();
            let prepared = backend.attend_prepared(&memory, &query).unwrap();
            prop_assert_eq!(&one_shot, &prepared);
            let negated: Vec<f32> = query.iter().map(|x| -x).collect();
            let rows = [query.as_slice(), negated.as_slice()];
            let batch = backend.attend_batch_prepared(&memory, &rows).unwrap();
            prop_assert_eq!(batch.len(), 2);
            prop_assert_eq!(&batch[0], &prepared);
            prop_assert_eq!(&batch[1], &backend.attend_prepared(&memory, &negated).unwrap());
        }
    }

    /// Cache identity follows memory content: the same memory hits, a mutated memory
    /// misses, and a warm lookup never re-runs the key-column sort.
    #[test]
    fn cache_hits_same_memory_and_misses_mutated_memory(
        (keys, values, _query) in attention_case(),
        row_bump in 0.5f32..2.0,
    ) {
        for backend in all_backends() {
            let mut cache = MemoryCache::new(4);
            let (_, hit) = cache.get_or_prepare(backend.as_ref(), &keys, &values).unwrap();
            prop_assert!(!hit, "first lookup must miss ({})", backend.name());
            let sorts_before = preprocess_count();
            let (_, hit) = cache.get_or_prepare(backend.as_ref(), &keys, &values).unwrap();
            prop_assert!(hit, "second lookup must hit ({})", backend.name());
            prop_assert_eq!(preprocess_count(), sorts_before);
            let mut mutated = keys.clone();
            mutated.row_mut(0)[0] += row_bump;
            let (_, hit) = cache.get_or_prepare(backend.as_ref(), &mutated, &values).unwrap();
            prop_assert!(!hit, "mutated memory must miss ({})", backend.name());
            prop_assert_eq!((cache.hits(), cache.misses()), (1, 2));
        }
    }

    /// The single-shard sharded path is bit-identical to the unsharded prepared path
    /// for every backend: sharding with K = 1 is a pure no-op.
    #[test]
    fn single_shard_is_bit_identical_to_unsharded((keys, values, query) in attention_case()) {
        for backend in all_backends() {
            let memory = backend.prepare(&keys, &values).unwrap();
            let sharded =
                ShardedMemory::prepare(backend.as_ref(), ShardPlan::single(), &keys, &values)
                    .unwrap();
            prop_assert_eq!(sharded.shard_count(), 1);
            let merged = backend.attend_sharded(&sharded, &query).unwrap();
            let direct = backend.attend_prepared(&memory, &query).unwrap();
            prop_assert_eq!(&merged, &direct);
        }
    }

    /// The K > 1 log-sum-exp merge of per-shard exact partials matches the unsharded
    /// exact result within float tolerance, on random memories and shard counts that
    /// do not divide `n` evenly (and shard counts exceeding `n`).
    #[test]
    fn exact_merge_matches_unsharded_within_tolerance(
        (keys, values, query) in attention_case(),
        shards in 2usize..7,
    ) {
        let unsharded = ExactBackend.attend(&keys, &values, &query).unwrap();
        let sharded =
            ShardedMemory::prepare(&ExactBackend, ShardPlan::new(shards).unwrap(), &keys, &values)
                .unwrap();
        let merged = ExactBackend.attend_sharded(&sharded, &query).unwrap();
        // Dot products run over the same rows with the same arithmetic: bit-identical.
        prop_assert_eq!(&merged.scores, &unsharded.scores);
        for (a, b) in merged.output.iter().zip(&unsharded.output) {
            prop_assert!((a - b).abs() < 1e-5, "output {} vs {}", a, b);
        }
        for (a, b) in merged.weights.iter().zip(&unsharded.weights) {
            prop_assert!((a - b).abs() < 1e-5, "weight {} vs {}", a, b);
        }
        let sum: f32 = merged.weights.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    /// Sharded execution of the quantized datapath stays within the per-shard
    /// weight-quantization noise bound of the unsharded fixed-point result, and the
    /// merged weights still form a distribution.
    #[test]
    fn quantized_merge_stays_within_quantization_noise(
        (keys, values, query) in attention_case(),
        shards in 2usize..5,
    ) {
        let backend = QuantizedBackend::paper();
        let unsharded = backend.attend(&keys, &values, &query).unwrap();
        let sharded =
            ShardedMemory::prepare(&backend, ShardPlan::new(shards).unwrap(), &keys, &values)
                .unwrap();
        let merged = backend.attend_sharded(&sharded, &query).unwrap();
        for (a, b) in merged.output.iter().zip(&unsharded.output) {
            prop_assert!((a - b).abs() < 0.08, "output {} vs {}", a, b);
        }
        let sum: f32 = merged.weights.iter().sum();
        prop_assert!((sum - 1.0).abs() < 0.05);
    }

    /// The SIMD backend computes the same exact operation as `ExactBackend` within
    /// 1e-5 — at whatever level the host dispatches to and at the forced scalar
    /// level (which must be bit-identical) — across random shapes including `n = 1`
    /// and dimensions that are not a multiple of the 8-lane width.
    #[test]
    fn simd_backend_matches_exact_within_tolerance((keys, values, query) in simd_case()) {
        let exact = ExactBackend.attend(&keys, &values, &query).unwrap();
        let simd = SimdBackend::new().attend(&keys, &values, &query).unwrap();
        let score_scale = exact.scores.iter().fold(1.0f32, |acc, &s| acc.max(s.abs()));
        for (a, b) in simd.scores.iter().zip(&exact.scores) {
            prop_assert!((a - b).abs() <= 1e-5 * score_scale, "score {} vs {}", a, b);
        }
        for (a, b) in simd.weights.iter().zip(&exact.weights) {
            prop_assert!((a - b).abs() <= 1e-5, "weight {} vs {}", a, b);
        }
        for (a, b) in simd.output.iter().zip(&exact.output) {
            prop_assert!((a - b).abs() <= 1e-5, "output {} vs {}", a, b);
        }
        let sum: f32 = simd.weights.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        // The scalar fallback is exactly the exact backend.
        prop_assert_eq!(&SimdBackend::scalar().attend(&keys, &values, &query).unwrap(), &exact);
    }

    /// The SIMD backend can serve a memory prepared by the approximate backend (it
    /// only needs the raw matrices), and its answer equals serving its own prepared
    /// memory bit-for-bit — the exact-re-scoring interplay next to the approximate
    /// datapath, including memories whose candidate selection would come back empty.
    #[test]
    fn simd_serves_approximate_prepared_memories((keys, values, query) in simd_case()) {
        let simd = SimdBackend::new();
        let approx = ApproximateBackend::conservative();
        let sorted = approx.prepare(&keys, &values).unwrap();
        let own = simd.prepare(&keys, &values).unwrap();
        prop_assert_eq!(
            &simd.attend_prepared(&sorted, &query).unwrap(),
            &simd.attend_prepared(&own, &query).unwrap()
        );
    }

    /// The K > 1 log-sum-exp merge of per-shard SIMD partials matches the unsharded
    /// exact result within 1e-5, on random memories and shard counts that do not
    /// divide `n` evenly — the sharded counterpart of the SIMD closeness contract.
    #[test]
    fn simd_sharded_merge_matches_exact_within_tolerance(
        (keys, values, query) in simd_case(),
        shards in 2usize..7,
    ) {
        let backend = SimdBackend::new();
        let unsharded = ExactBackend.attend(&keys, &values, &query).unwrap();
        let sharded =
            ShardedMemory::prepare(&backend, ShardPlan::new(shards).unwrap(), &keys, &values)
                .unwrap();
        let merged = backend.attend_sharded(&sharded, &query).unwrap();
        let score_scale = unsharded.scores.iter().fold(1.0f32, |acc, &s| acc.max(s.abs()));
        for (a, b) in merged.scores.iter().zip(&unsharded.scores) {
            prop_assert!((a - b).abs() <= 1e-5 * score_scale, "score {} vs {}", a, b);
        }
        for (a, b) in merged.output.iter().zip(&unsharded.output) {
            prop_assert!((a - b).abs() < 1e-5, "output {} vs {}", a, b);
        }
        for (a, b) in merged.weights.iter().zip(&unsharded.weights) {
            prop_assert!((a - b).abs() < 1e-5, "weight {} vs {}", a, b);
        }
        let sum: f32 = merged.weights.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    /// The AVX2 vector datapath and the scalar quantized datapath are
    /// bit-identical on random memories, queries, shapes and input formats. The
    /// `simd_case` shapes include `n = 1` and dimensions that are not a multiple
    /// of the 8/16-lane widths, so every kernel tail length is exercised. (On
    /// non-AVX2 hosts, under `A3_FORCE_SCALAR=1`, and for shapes or formats
    /// outside the vector eligibility gates, both memories run the same scalar
    /// code and the property holds trivially.)
    #[test]
    fn vector_and_scalar_quantized_datapaths_are_bit_identical(
        (keys, values, query) in simd_case(),
        fmt in quantized_format(),
    ) {
        let auto = QuantizedMemory::prepare(fmt, &keys, &values).unwrap();
        let scalar = QuantizedMemory::prepare_scalar(fmt, &keys, &values).unwrap();
        prop_assert!(!scalar.is_vectorized());
        prop_assert_eq!(auto.attend(&query).unwrap(), scalar.attend(&query).unwrap());
    }

    /// The sharded log-sum-exp merge built on vector-datapath partials is
    /// bit-identical to the same merge built on scalar-datapath partials, on
    /// random memories and shard counts that do not divide `n` evenly — the
    /// vectorised quantized kernels thread through sharded serving unchanged.
    #[test]
    fn quantized_sharded_merge_is_identical_for_vector_and_scalar_datapaths(
        (keys, values, query) in simd_case(),
        shards in 2usize..5,
    ) {
        let vector = QuantizedBackend::paper();
        let scalar = QuantizedBackend::paper_scalar();
        let plan = ShardPlan::new(shards).unwrap();
        let vector_sharded = ShardedMemory::prepare(&vector, plan, &keys, &values).unwrap();
        let scalar_sharded = ShardedMemory::prepare(&scalar, plan, &keys, &values).unwrap();
        prop_assert_eq!(
            &vector.attend_sharded(&vector_sharded, &query).unwrap(),
            &scalar.attend_sharded(&scalar_sharded, &query).unwrap()
        );
    }

    /// The `AttentionServer` front-end is bit-identical to direct per-query
    /// `attend_prepared` calls for every served backend — across full, window- and
    /// deadline-forced partial batches, and including the legal empty-batch flush.
    /// Batching is a scheduling decision, never a numerics decision.
    #[test]
    fn server_responses_are_bit_identical_to_direct_prepared_calls(
        (keys, values, requests, max_batch, window) in serving_scenario()
    ) {
        for backend in served_backends() {
            let name = backend.name();
            let reference = backend.prepare(&keys, &values).unwrap();
            let policy = BatchPolicy::new(max_batch, window).unwrap();
            let mut server = AttentionServer::builder(backend).batch_policy(policy).build();

            // The empty-batch flush is legal before anything is registered.
            prop_assert!(server.poll(0).unwrap().is_empty(), "{}", name);
            prop_assert!(server.flush_all(0).unwrap().is_empty(), "{}", name);

            let session = server.register(MemoryConfig::new(&keys, &values)).unwrap();
            let mut queries = Vec::with_capacity(requests.len());
            let mut responses: Vec<Response> = Vec::new();
            let mut now = 0u64;
            for (query, gap, has_deadline, slack) in &requests {
                now += gap;
                let mut request = Request::new(session, query.clone(), now);
                if *has_deadline == 1 {
                    // Tight slacks force deadline flushes of partial batches.
                    request = request.with_deadline(now + slack);
                }
                server.submit(request).unwrap();
                queries.push(query.clone());
                // Polling at every arrival exercises fill- and deadline-triggered
                // flushes while later requests are still arriving.
                for batch in server.poll(now).unwrap() {
                    responses.extend(batch.responses);
                }
            }
            // Drain window-triggered batches at their exact due ticks, then
            // force-flush whatever remains.
            while let Some(due) = server.next_due() {
                for batch in server.poll(due).unwrap() {
                    responses.extend(batch.responses);
                }
            }
            for batch in server.flush_all(now + 1).unwrap() {
                responses.extend(batch.responses);
            }

            prop_assert_eq!(responses.len(), queries.len());
            prop_assert_eq!(server.pending(), 0);
            responses.sort_by_key(|r| r.request);
            for (query, response) in queries.iter().zip(&responses) {
                let direct = server.backend().attend_prepared(&reference, query).unwrap();
                prop_assert_eq!(&response.result, &direct);
                prop_assert!(response.completed_at >= response.arrival, "{}", name);
            }
        }
    }
}
