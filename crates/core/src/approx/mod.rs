//! The A3 approximation schemes (paper Section IV).
//!
//! The approximation has two independent knobs:
//!
//! * **Candidate selection** (Section IV-B/C): a greedy, preprocessing-assisted search
//!   that selects the rows of the key matrix likely to have a high dot-product score
//!   *without* computing the full dot products. Controlled by the iteration count `M`.
//! * **Post-scoring selection** (Section IV-D): after the full dot products of the
//!   candidates are computed, rows whose score falls more than `t = ln(100/T)` below the
//!   maximum are dropped before softmax and the weighted sum. Controlled by the
//!   threshold `T` (in percent of the maximum post-softmax weight).
//!
//! This module holds the algorithms: candidate selection over [`SortedKeyColumns`]
//! (plus its naive reference and the sorted columns' incremental maintenance),
//! post-scoring selection and the configuration types. The pipeline that chains them
//! is [`ApproximateBackend`](crate::backend::ApproximateBackend), whose
//! [`attend_detailed`](crate::backend::ApproximateBackend::attend_detailed) also
//! reports which rows each stage kept and the work counts (how many candidates `C`
//! and selected entries `K` survived) that the cycle-level simulator turns into
//! latency, throughput and energy.

pub mod candidate;
pub mod candidate_naive;
mod config;
pub(crate) mod incremental;
pub mod post_scoring;
mod preprocess;

pub use candidate::{select_candidates, CandidateSelection};
pub use candidate_naive::select_candidates_naive;
pub use config::{ApproxConfig, MSpec, ThresholdSpec};
pub use post_scoring::{post_scoring_select, static_top_k};
pub use preprocess::{preprocess_count, SortedKeyColumns};

use crate::attention::AttentionResult;
use crate::backend::WorkProfile;

/// Output of one approximate attention operation, from
/// [`ApproximateBackend::attend_detailed`](crate::backend::ApproximateBackend::attend_detailed).
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxAttentionOutput {
    /// Scores and weights aligned with the full key matrix, plus the output vector;
    /// rows that were pruned have score and weight zero. Comparable element-wise with
    /// the exact [`AttentionResult`].
    pub result: AttentionResult,
    /// Rows chosen by candidate selection (sorted ascending).
    pub candidates: Vec<usize>,
    /// Rows surviving post-scoring selection (subset of `candidates`, sorted ascending).
    pub selected: Vec<usize>,
    /// Work counts (`M`, `C`, `K`, `n`) for the performance/energy model.
    pub work: WorkProfile,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::attention_with_scores;
    use crate::backend::{ApproximateBackend, ComputeBackend, PreparedMemory, PreparedState};
    use crate::Matrix;

    fn skewed_case(n: usize, d: usize) -> (Matrix, Matrix, Vec<f32>) {
        // One strongly relevant row (row 3), the rest weakly negative.
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| {
                        if i == 3 {
                            0.9
                        } else {
                            -0.1 - 0.01 * ((i + j) % 5) as f32
                        }
                    })
                    .collect()
            })
            .collect();
        let keys = Matrix::from_rows(rows).unwrap();
        let values = keys.clone();
        let query = vec![0.5; d];
        (keys, values, query)
    }

    /// Prepares the memory and attends `query` with the detailed output.
    fn attend(
        config: ApproxConfig,
        keys: &Matrix,
        values: &Matrix,
        query: &[f32],
    ) -> ApproxAttentionOutput {
        let backend = ApproximateBackend::new(config);
        let memory = backend.prepare(keys, values).unwrap();
        backend.attend_detailed(&memory, query).unwrap()
    }

    #[test]
    fn no_approximation_matches_exact() {
        let (keys, values, query) = skewed_case(16, 8);
        let exact = attention_with_scores(&keys, &values, &query).unwrap();
        let out = attend(ApproxConfig::none(), &keys, &values, &query);
        for (a, b) in exact.output.iter().zip(&out.result.output) {
            assert!((a - b).abs() < 1e-5);
        }
        assert_eq!(out.work.candidates, 16);
        assert_eq!(out.work.selected, 16);
    }

    #[test]
    fn conservative_approximation_keeps_top_row() {
        let (keys, values, query) = skewed_case(32, 16);
        let out = attend(ApproxConfig::conservative(), &keys, &values, &query);
        assert!(out.selected.contains(&3));
        // The dominant row's weight should remain close to the exact weight.
        let exact = attention_with_scores(&keys, &values, &query).unwrap();
        assert!((out.result.weights[3] - exact.weights[3]).abs() < 0.05);
    }

    #[test]
    fn aggressive_prunes_more_than_conservative() {
        let (keys, values, query) = skewed_case(64, 16);
        let cons = attend(ApproxConfig::conservative(), &keys, &values, &query);
        let aggr = attend(ApproxConfig::aggressive(), &keys, &values, &query);
        assert!(aggr.work.candidates <= cons.work.candidates);
        assert!(aggr.work.selected <= cons.work.selected);
    }

    #[test]
    fn selected_is_subset_of_candidates() {
        let (keys, values, query) = skewed_case(40, 8);
        let out = attend(ApproxConfig::aggressive(), &keys, &values, &query);
        for r in &out.selected {
            assert!(out.candidates.contains(r));
        }
    }

    #[test]
    fn weights_of_selected_rows_sum_to_one() {
        let (keys, values, query) = skewed_case(24, 8);
        let out = attend(ApproxConfig::conservative(), &keys, &values, &query);
        let sum: f32 = out.result.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn prepared_and_unprepared_agree() {
        let (keys, values, query) = skewed_case(20, 8);
        let backend = ApproximateBackend::conservative();
        let out = attend(*backend.config(), &keys, &values, &query);
        assert_eq!(backend.attend(&keys, &values, &query).unwrap(), out.result);
    }

    #[test]
    fn mismatched_prepared_shape_rejected() {
        let (keys, values, query) = skewed_case(20, 8);
        let (other_keys, _, _) = skewed_case(10, 8);
        let sorted = SortedKeyColumns::preprocess(&other_keys);
        let memory = PreparedMemory::new(&keys, &values, 0, PreparedState::Sorted(sorted)).unwrap();
        assert!(ApproximateBackend::conservative()
            .attend_detailed(&memory, &query)
            .is_err());
    }

    #[test]
    fn all_negative_scores_still_produce_output() {
        // Every key row is anti-aligned with the query; the fallback must still select
        // one row so the output is well defined.
        let keys =
            Matrix::from_rows(vec![vec![-1.0, -1.0], vec![-0.5, -0.9], vec![-0.7, -0.2]]).unwrap();
        let values = keys.clone();
        let out = attend(ApproxConfig::aggressive(), &keys, &values, &[1.0, 1.0]);
        assert!(!out.selected.is_empty());
        assert!(out.result.output.iter().all(|x| x.is_finite()));
    }
}
