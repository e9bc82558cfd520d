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
//! [`ApproximateAttention`] chains the two and produces both the approximate output and
//! statistics (how many candidates `C` and selected entries `K` survived), which the
//! cycle-level simulator uses to derive latency, throughput and energy.

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

use crate::attention::{stable_softmax, weighted_sum, AttentionResult};
use crate::{AttentionError, Matrix};

/// Statistics describing how much work one approximate attention operation performed.
/// These counts drive the performance and energy models in `a3-sim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ApproxStats {
    /// Number of rows in the key matrix (`n`).
    pub n: usize,
    /// Candidate-selection iterations actually executed (`M`), or 0 when candidate
    /// selection is disabled.
    pub m_used: usize,
    /// Number of candidates produced by candidate selection (`C`).
    pub num_candidates: usize,
    /// Number of entries surviving post-scoring selection (`K`).
    pub num_selected: usize,
    /// Number of iterations in which the min-queue operation was skipped by the
    /// negative-cumulative-sum heuristic.
    pub min_ops_skipped: usize,
}

/// Output of an approximate attention operation.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxAttentionOutput {
    /// The approximate attended output vector (dimension `d`).
    pub output: Vec<f32>,
    /// Scores and weights aligned with the full key matrix; rows that were pruned have
    /// score and weight zero. Comparable element-wise with the exact
    /// [`AttentionResult`].
    pub result: AttentionResult,
    /// Rows chosen by candidate selection (sorted ascending).
    pub candidates: Vec<usize>,
    /// Rows surviving post-scoring selection (subset of `candidates`, sorted ascending).
    pub selected: Vec<usize>,
    /// Work counters for the performance/energy model.
    pub stats: ApproxStats,
}

/// End-to-end approximate attention: candidate selection followed by post-scoring
/// selection followed by softmax and the weighted sum over the surviving rows.
///
/// ```
/// use a3_core::{Matrix, approx::{ApproxConfig, ApproximateAttention}};
/// let keys = Matrix::from_rows(vec![vec![1.0, 0.0], vec![-1.0, 0.5], vec![0.9, 0.1]]).unwrap();
/// let values = keys.clone();
/// let approx = ApproximateAttention::new(ApproxConfig::conservative());
/// let out = approx.attend(&keys, &values, &[1.0, 0.0]).unwrap();
/// assert!(out.stats.num_candidates >= 1);
/// assert_eq!(out.output.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ApproximateAttention {
    config: ApproxConfig,
}

impl ApproximateAttention {
    /// Creates an approximate attention operator with the given configuration.
    pub fn new(config: ApproxConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ApproxConfig {
        &self.config
    }

    /// Performs approximate attention, preprocessing (column-sorting) the key matrix on
    /// the fly. For workloads that reuse one key matrix across many queries (BERT-style
    /// self-attention) prefer [`ApproximateAttention::attend_prepared`], which amortizes
    /// the preprocessing exactly as the paper describes.
    ///
    /// # Errors
    ///
    /// Returns an error if the key/value/query shapes are inconsistent.
    pub fn attend(
        &self,
        keys: &Matrix,
        values: &Matrix,
        query: &[f32],
    ) -> Result<ApproxAttentionOutput, AttentionError> {
        keys.validate_attention(values, query)?;
        let sorted = SortedKeyColumns::preprocess(keys);
        self.attend_prepared(&sorted, keys, values, query)
    }

    /// Performs approximate attention against a key matrix whose per-column sort was
    /// computed ahead of time (at "comprehension time" in the paper's terminology).
    ///
    /// # Errors
    ///
    /// Returns an error if the key/value/query shapes are inconsistent or if `sorted`
    /// was built from a matrix of different shape.
    pub fn attend_prepared(
        &self,
        sorted: &SortedKeyColumns,
        keys: &Matrix,
        values: &Matrix,
        query: &[f32],
    ) -> Result<ApproxAttentionOutput, AttentionError> {
        keys.validate_attention(values, query)?;
        if sorted.rows() != keys.rows() || sorted.dim() != keys.dim() {
            return Err(AttentionError::InvalidParameter {
                name: "sorted",
                constraint: "preprocessed key columns must match the key matrix shape",
            });
        }
        let n = keys.rows();

        // Stage 1: candidate selection.
        let (candidates, m_used, min_ops_skipped) = match self.config.resolve_m(n) {
            Some(m) => {
                let selection = select_candidates(sorted, query, m);
                let mut cands = selection.candidates;
                if cands.is_empty() {
                    // Degenerate case (all greedy scores non-positive): fall back to the
                    // best greedy-score row so the pipeline always produces an output.
                    cands = vec![selection.best_row];
                }
                (cands, m, selection.min_ops_skipped)
            }
            None => ((0..n).collect::<Vec<_>>(), 0, 0),
        };

        // Stage 2: full dot products for the candidates only.
        let candidate_scores: Vec<f32> =
            candidates.iter().map(|&r| keys.row_dot(r, query)).collect();

        // Stage 3: post-scoring selection.
        let selected: Vec<usize> = match self.config.threshold() {
            Some(t_pct) => post_scoring_select(&candidates, &candidate_scores, t_pct),
            None => candidates.clone(),
        };

        // Stage 4: softmax + weighted sum over the surviving rows.
        let selected_scores: Vec<f32> = selected.iter().map(|&r| keys.row_dot(r, query)).collect();
        let selected_weights = stable_softmax(&selected_scores);
        let mut scores = vec![0.0f32; n];
        let mut weights = vec![0.0f32; n];
        for (&r, (&s, &w)) in selected
            .iter()
            .zip(selected_scores.iter().zip(&selected_weights))
        {
            scores[r] = s;
            weights[r] = w;
        }
        let output = weighted_sum(values, &weights)?;

        let stats = ApproxStats {
            n,
            m_used,
            num_candidates: candidates.len(),
            num_selected: selected.len(),
            min_ops_skipped,
        };
        Ok(ApproxAttentionOutput {
            result: AttentionResult {
                scores,
                weights,
                output: output.clone(),
            },
            output,
            candidates,
            selected,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::attention_with_scores;

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

    #[test]
    fn no_approximation_matches_exact() {
        let (keys, values, query) = skewed_case(16, 8);
        let exact = attention_with_scores(&keys, &values, &query).unwrap();
        let approx = ApproximateAttention::new(ApproxConfig::none());
        let out = approx.attend(&keys, &values, &query).unwrap();
        for (a, b) in exact.output.iter().zip(&out.output) {
            assert!((a - b).abs() < 1e-5);
        }
        assert_eq!(out.stats.num_candidates, 16);
        assert_eq!(out.stats.num_selected, 16);
    }

    #[test]
    fn conservative_approximation_keeps_top_row() {
        let (keys, values, query) = skewed_case(32, 16);
        let approx = ApproximateAttention::new(ApproxConfig::conservative());
        let out = approx.attend(&keys, &values, &query).unwrap();
        assert!(out.selected.contains(&3));
        // The dominant row's weight should remain close to the exact weight.
        let exact = attention_with_scores(&keys, &values, &query).unwrap();
        assert!((out.result.weights[3] - exact.weights[3]).abs() < 0.05);
    }

    #[test]
    fn aggressive_prunes_more_than_conservative() {
        let (keys, values, query) = skewed_case(64, 16);
        let cons = ApproximateAttention::new(ApproxConfig::conservative())
            .attend(&keys, &values, &query)
            .unwrap();
        let aggr = ApproximateAttention::new(ApproxConfig::aggressive())
            .attend(&keys, &values, &query)
            .unwrap();
        assert!(aggr.stats.num_candidates <= cons.stats.num_candidates);
        assert!(aggr.stats.num_selected <= cons.stats.num_selected);
    }

    #[test]
    fn selected_is_subset_of_candidates() {
        let (keys, values, query) = skewed_case(40, 8);
        let out = ApproximateAttention::new(ApproxConfig::aggressive())
            .attend(&keys, &values, &query)
            .unwrap();
        for r in &out.selected {
            assert!(out.candidates.contains(r));
        }
    }

    #[test]
    fn weights_of_selected_rows_sum_to_one() {
        let (keys, values, query) = skewed_case(24, 8);
        let out = ApproximateAttention::new(ApproxConfig::conservative())
            .attend(&keys, &values, &query)
            .unwrap();
        let sum: f32 = out.result.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn prepared_and_unprepared_agree() {
        let (keys, values, query) = skewed_case(20, 8);
        let approx = ApproximateAttention::new(ApproxConfig::conservative());
        let sorted = SortedKeyColumns::preprocess(&keys);
        let a = approx.attend(&keys, &values, &query).unwrap();
        let b = approx
            .attend_prepared(&sorted, &keys, &values, &query)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mismatched_prepared_shape_rejected() {
        let (keys, values, query) = skewed_case(20, 8);
        let (other_keys, _, _) = skewed_case(10, 8);
        let sorted = SortedKeyColumns::preprocess(&other_keys);
        let approx = ApproximateAttention::new(ApproxConfig::conservative());
        assert!(approx
            .attend_prepared(&sorted, &keys, &values, &query)
            .is_err());
    }

    #[test]
    fn all_negative_scores_still_produce_output() {
        // Every key row is anti-aligned with the query; the fallback must still select
        // one row so the output is well defined.
        let keys =
            Matrix::from_rows(vec![vec![-1.0, -1.0], vec![-0.5, -0.9], vec![-0.7, -0.2]]).unwrap();
        let values = keys.clone();
        let out = ApproximateAttention::new(ApproxConfig::aggressive())
            .attend(&keys, &values, &[1.0, 1.0])
            .unwrap();
        assert!(!out.selected.is_empty());
        assert!(out.output.iter().all(|x| x.is_finite()));
    }
}
