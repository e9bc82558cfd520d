//! Reference (exact) attention mechanisms.
//!
//! These functions implement Figure 1 of the paper (the textbook soft attention
//! mechanism) and the reordered variant of Figure 5 used by the base A3 pipeline.
//! Self-attention, where every token queries a memory built from the same tokens, is
//! [`ComputeBackend::attend_batch`](crate::backend::ComputeBackend::attend_batch) with
//! the token states as keys, values and queries.

mod softmax;

pub use softmax::{softmax, softmax_in_place, stable_softmax};

use crate::{AttentionError, Matrix};

/// Full result of an attention operation, exposing the intermediate similarity scores
/// and softmax weights in addition to the output vector (C-INTERMEDIATE: callers such as
/// the accuracy-evaluation harness need the weights to compute top-k recall).
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionResult {
    /// Raw dot-product similarity scores, one per key row.
    pub scores: Vec<f32>,
    /// Softmax-normalized weights, one per key row.
    pub weights: Vec<f32>,
    /// The attended output vector of dimension `d`.
    pub output: Vec<f32>,
}

impl AttentionResult {
    /// Indices of the `k` rows with the largest weights, in descending weight order.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.weights.len()).collect();
        order.sort_by(|&a, &b| {
            self.weights[b]
                .partial_cmp(&self.weights[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order.truncate(k);
        order
    }

    /// Index of the highest-weight row.
    ///
    /// # Panics
    ///
    /// Panics if the result is empty (which [`attention_with_scores`] never produces).
    pub fn argmax(&self) -> usize {
        self.top_k(1)[0]
    }
}

/// Computes the similarity scores (Step 1 of Figure 1): the dot product of every key row
/// with the query.
///
/// # Errors
///
/// Returns an error if the shapes are inconsistent (see [`Matrix::validate_attention`]).
pub fn dot_product_scores(keys: &Matrix, query: &[f32]) -> Result<Vec<f32>, AttentionError> {
    if keys.is_empty() {
        return Err(AttentionError::EmptyMemory);
    }
    if query.len() != keys.dim() {
        return Err(AttentionError::DimensionMismatch {
            expected: keys.dim(),
            actual: query.len(),
        });
    }
    Ok((0..keys.rows()).map(|i| keys.row_dot(i, query)).collect())
}

/// Computes the weighted sum of value rows (Step 3 of Figure 1).
///
/// # Errors
///
/// Returns [`AttentionError::RowCountMismatch`] if `weights.len() != values.rows()`.
pub fn weighted_sum(values: &Matrix, weights: &[f32]) -> Result<Vec<f32>, AttentionError> {
    let mut output = Vec::with_capacity(values.dim());
    weighted_sum_into(values, weights, &mut output)?;
    Ok(output)
}

/// [`weighted_sum`] into `output`, whose previous contents are discarded.
fn weighted_sum_into(
    values: &Matrix,
    weights: &[f32],
    output: &mut Vec<f32>,
) -> Result<(), AttentionError> {
    if weights.len() != values.rows() {
        return Err(AttentionError::RowCountMismatch {
            keys: weights.len(),
            values: values.rows(),
        });
    }
    output.clear();
    output.resize(values.dim(), 0.0);
    for (row, &w) in values.iter_rows().zip(weights) {
        if w == 0.0 {
            continue;
        }
        for (o, v) in output.iter_mut().zip(row) {
            *o += w * v;
        }
    }
    Ok(())
}

/// A query an attend kernel reads and then turns into the buffer its output
/// is written to. A borrowed query (`&[f32]`) turns into a fresh buffer; an
/// owned one (`Vec<f32>`) into its own, which is why a kernel may call
/// [`QueryBuffer::into_output`] only once it has read the query for the last
/// time. Either way the kernel writes the same output bits.
pub(crate) trait QueryBuffer {
    /// The query.
    fn query(&self) -> &[f32];

    /// An empty buffer with room for `d` elements.
    fn into_output(self, d: usize) -> Vec<f32>;
}

impl QueryBuffer for &[f32] {
    fn query(&self) -> &[f32] {
        self
    }

    fn into_output(self, d: usize) -> Vec<f32> {
        Vec::with_capacity(d)
    }
}

impl QueryBuffer for Vec<f32> {
    fn query(&self) -> &[f32] {
        self
    }

    fn into_output(mut self, d: usize) -> Vec<f32> {
        self.clear();
        self.reserve(d);
        self
    }
}

/// The attention mechanism exactly as written in Figure 1 of the paper: dot-product
/// scores, naive softmax, weighted sum. Returns only the output vector.
///
/// # Errors
///
/// Returns an error if the key/value/query shapes are inconsistent.
pub fn attention(
    keys: &Matrix,
    values: &Matrix,
    query: &[f32],
) -> Result<Vec<f32>, AttentionError> {
    Ok(attention_with_scores(keys, values, query)?.output)
}

/// Attention returning the intermediate scores and weights as well as the output.
///
/// This uses the numerically stable (max-subtracted) softmax of Figure 5; for the value
/// ranges of real workloads it is numerically identical to Figure 1 but never overflows.
///
/// # Errors
///
/// Returns an error if the key/value/query shapes are inconsistent.
pub fn attention_with_scores(
    keys: &Matrix,
    values: &Matrix,
    query: &[f32],
) -> Result<AttentionResult, AttentionError> {
    attend_exact(keys, values, query)
}

/// [`attention_with_scores`] for any [`QueryBuffer`]: the output lands in the
/// buffer the query turns into once the scores are computed.
pub(crate) fn attend_exact(
    keys: &Matrix,
    values: &Matrix,
    query: impl QueryBuffer,
) -> Result<AttentionResult, AttentionError> {
    keys.validate_attention(values, query.query())?;
    let scores = dot_product_scores(keys, query.query())?;
    let weights = stable_softmax(&scores);
    let mut output = query.into_output(values.dim());
    weighted_sum_into(values, &weights, &mut output)?;
    Ok(AttentionResult {
        scores,
        weights,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure6_example() -> (Matrix, Matrix, Vec<f32>) {
        let key = Matrix::from_rows(vec![
            vec![-0.6, 0.1, 0.8],
            vec![0.1, -0.2, -0.9],
            vec![0.8, 0.6, 0.7],
            vec![0.5, 0.7, 0.5],
        ])
        .unwrap();
        let value = Matrix::from_rows(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ])
        .unwrap();
        let query = vec![0.8, -0.3, 0.4];
        (key, value, query)
    }

    #[test]
    fn dot_products_match_paper_true_scores() {
        // Figure 6's "true score" column is [-0.19, -0.38, 0.74, 0.19]; rows 1 and 3 in
        // the published figure contain small typos (the element products it prints do
        // not sum to those values), so we assert against the exact arithmetic of the
        // printed key matrix and query: [-0.19, -0.22, 0.74, 0.39].
        let (key, _, query) = figure6_example();
        let scores = dot_product_scores(&key, &query).unwrap();
        let expected = [-0.19, -0.22, 0.74, 0.39];
        for (s, e) in scores.iter().zip(expected.iter()) {
            assert!((s - e).abs() < 1e-6, "{s} vs {e}");
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let (key, value, query) = figure6_example();
        let result = attention_with_scores(&key, &value, &query).unwrap();
        let sum: f32 = result.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn highest_score_row_gets_highest_weight() {
        let (key, value, query) = figure6_example();
        let result = attention_with_scores(&key, &value, &query).unwrap();
        assert_eq!(result.argmax(), 2);
    }

    #[test]
    fn output_is_convex_combination_of_values() {
        let (key, value, query) = figure6_example();
        let out = attention(&key, &value, &query).unwrap();
        // All value entries are in [0, 1], so the convex combination must be too.
        assert!(out.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }

    #[test]
    fn shape_validation_propagates() {
        let (key, value, _) = figure6_example();
        assert!(matches!(
            attention(&key, &value, &[1.0, 2.0]),
            Err(AttentionError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn top_k_orders_by_weight() {
        let (key, value, query) = figure6_example();
        let result = attention_with_scores(&key, &value, &query).unwrap();
        let top = result.top_k(2);
        assert_eq!(top[0], 2);
        assert_eq!(top[1], 3);
    }

    #[test]
    fn weighted_sum_checks_length() {
        let (_, value, _) = figure6_example();
        assert!(weighted_sum(&value, &[0.5, 0.5]).is_err());
    }

    #[test]
    fn weighted_sum_skips_zero_weights() {
        let (_, value, _) = figure6_example();
        let out = weighted_sum(&value, &[0.0, 0.0, 1.0, 0.0]).unwrap();
        assert_eq!(out, value.row(2).to_vec());
    }
}
