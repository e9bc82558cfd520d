//! Self-attention (the BERT/Transformer use of the attention mechanism).
//!
//! In self-attention every one of the `n` tokens issues a query against a key/value
//! memory built from the *same* `n` tokens, so a layer performs `n` attention
//! operations over the same key matrix (paper Section IV-C: this is why the key-matrix
//! preprocessing cost is amortized over `n` queries for BERT).

use crate::attention::AttentionResult;
use crate::backend::ComputeBackend;
use crate::{AttentionError, Matrix};

/// Result of applying self-attention to a sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfAttentionOutput {
    /// Output token states, one row per input token.
    pub outputs: Matrix,
    /// Per-query attention results (scores / weights / output), in query order.
    /// Useful for accuracy analysis of approximation schemes.
    pub per_query: Vec<AttentionResult>,
}

/// Runs single-head self-attention: for every row of `queries`, attend over
/// (`keys`, `values`) using `backend` and stack the outputs. The backend prepares the
/// key matrix once for the whole sequence (the Section IV-C amortisation).
///
/// # Errors
///
/// Propagates any shape error from the underlying backend.
pub fn self_attention<B: ComputeBackend + ?Sized>(
    backend: &B,
    keys: &Matrix,
    values: &Matrix,
    queries: &Matrix,
) -> Result<SelfAttentionOutput, AttentionError> {
    if queries.dim() != keys.dim() {
        return Err(AttentionError::DimensionMismatch {
            expected: keys.dim(),
            actual: queries.dim(),
        });
    }
    let per_query = backend.attend_batch(keys, values, queries)?;
    let rows: Vec<Vec<f32>> = per_query.iter().map(|r| r.output.clone()).collect();
    let outputs = Matrix::from_rows(rows)?;
    Ok(SelfAttentionOutput { outputs, per_query })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExactBackend;

    fn token_matrix(n: usize, d: usize) -> Matrix {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| (((i * 31 + j * 7) % 13) as f32 - 6.0) / 6.0)
                    .collect()
            })
            .collect();
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn self_attention_shapes() {
        let tokens = token_matrix(6, 8);
        let out = self_attention(&ExactBackend, &tokens, &tokens, &tokens).unwrap();
        assert_eq!(out.outputs.rows(), 6);
        assert_eq!(out.outputs.dim(), 8);
        assert_eq!(out.per_query.len(), 6);
    }

    #[test]
    fn self_attention_dimension_mismatch_rejected() {
        let tokens = token_matrix(6, 8);
        let queries = token_matrix(6, 4);
        assert!(self_attention(&ExactBackend, &tokens, &tokens, &queries).is_err());
    }
}
