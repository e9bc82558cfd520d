//! Dense (conventional) attention implementation.
//!
//! This is the matrix-vector-multiplication implementation the paper describes as
//! "today's practice" (Section II-C): compute every dot product, softmax over all of
//! them, multiply the full value matrix by the weight vector. It is the functional
//! software baseline, and its operation counts are what the CPU/GPU analytical models
//! charge for.

use a3_core::attention::{stable_softmax, AttentionResult};
use a3_core::{AttentionError, Matrix};

/// Dense attention for a single query (one matrix-vector multiplication per step).
///
/// Functionally identical to [`a3_core::attention::attention_with_scores`]; kept as a
/// separate, deliberately straightforward implementation so the baseline does not
/// inherit the library's own shortcuts (e.g. skipping zero weights).
///
/// # Errors
///
/// Returns an error if the key/value/query shapes are inconsistent.
pub fn dense_attention(
    keys: &Matrix,
    values: &Matrix,
    query: &[f32],
) -> Result<AttentionResult, AttentionError> {
    keys.validate_attention(values, query)?;
    let n = keys.rows();
    let d = keys.dim();
    // Step 1: dense matrix-vector multiplication (n x d) * (d).
    let mut scores = vec![0.0f32; n];
    for (i, row) in keys.iter_rows().enumerate() {
        let mut acc = 0.0f32;
        for (a, b) in row.iter().zip(query) {
            acc += a * b;
        }
        scores[i] = acc;
    }
    // Step 2: softmax over all n scores.
    let weights = stable_softmax(&scores);
    // Step 3: dense matrix-vector multiplication (d x n) * (n) — every row participates.
    let mut output = vec![0.0f32; d];
    for (i, row) in values.iter_rows().enumerate() {
        let w = weights[i];
        for (o, v) in output.iter_mut().zip(row) {
            *o += w * v;
        }
    }
    Ok(AttentionResult {
        scores,
        weights,
        output,
    })
}

/// Dense batched (self-)attention: every row of `queries` attends over the same keys
/// and values, as a batched matrix-matrix multiplication would on a GPU.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent.
pub fn dense_self_attention(
    keys: &Matrix,
    values: &Matrix,
    queries: &Matrix,
) -> Result<Vec<AttentionResult>, AttentionError> {
    queries
        .iter_rows()
        .map(|q| dense_attention(keys, values, q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use a3_core::attention::attention_with_scores;

    fn case(n: usize, d: usize) -> (Matrix, Matrix, Vec<f32>) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| (((i * 5 + j * 3) % 11) as f32 - 5.0) / 5.0)
                    .collect()
            })
            .collect();
        let keys = Matrix::from_rows(rows.clone()).unwrap();
        let values = Matrix::from_rows(rows).unwrap();
        let query = (0..d).map(|j| ((j % 7) as f32 - 3.0) / 3.0).collect();
        (keys, values, query)
    }

    #[test]
    fn matches_core_reference_attention() {
        let (k, v, q) = case(37, 16);
        let a = dense_attention(&k, &v, &q).unwrap();
        let b = attention_with_scores(&k, &v, &q).unwrap();
        for (x, y) in a.output.iter().zip(&b.output) {
            assert!((x - y).abs() < 1e-5);
        }
        for (x, y) in a.weights.iter().zip(&b.weights) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn batched_matches_per_query() {
        let (k, v, _) = case(12, 8);
        let queries = k.clone();
        let batched = dense_self_attention(&k, &v, &queries).unwrap();
        assert_eq!(batched.len(), 12);
        for (i, r) in batched.iter().enumerate() {
            let single = dense_attention(&k, &v, queries.row(i)).unwrap();
            assert_eq!(r, &single);
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let (k, v, _) = case(5, 4);
        assert!(dense_attention(&k, &v, &[0.0; 3]).is_err());
    }
}
