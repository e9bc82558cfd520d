//! Row-major matrix type used for key and value memories.

use serde::{Deserialize, Serialize};

use crate::AttentionError;

/// A dense row-major `n x d` matrix of `f32` values.
///
/// In A3 terms a [`Matrix`] is a key matrix or a value matrix: `n` rows (memory slots,
/// past states, tokens) of dimension `d` (the embedding size).
///
/// ```
/// use a3_core::Matrix;
/// let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.dim(), 2);
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// assert_eq!(m.column(0).collect::<Vec<_>>(), vec![1.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    data: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl Matrix {
    /// Creates a matrix of zeros with `rows` rows and dimension `dim`.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self {
            data: vec![0.0; rows * dim],
            rows,
            dim,
        }
    }

    /// Builds a matrix from a list of equally sized rows.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::RaggedRows`] if the rows do not all have the same
    /// length, and [`AttentionError::EmptyMemory`] if no rows are provided.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Result<Self, AttentionError> {
        let Some(first) = rows.first() else {
            return Err(AttentionError::EmptyMemory);
        };
        let dim = first.len();
        let mut data = Vec::with_capacity(rows.len() * dim);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != dim {
                return Err(AttentionError::RaggedRows {
                    row: i,
                    expected: dim,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            data,
            rows: rows.len(),
            dim,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidParameter`] if `data.len() != rows * dim`.
    pub fn from_flat(data: Vec<f32>, rows: usize, dim: usize) -> Result<Self, AttentionError> {
        if data.len() != rows * dim {
            return Err(AttentionError::InvalidParameter {
                name: "data",
                constraint: "flat buffer length must equal rows * dim",
            });
        }
        Ok(Self { data, rows, dim })
    }

    /// Number of rows (`n`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension (`d`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns true if the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrow a single row.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.rows()`.
    pub fn row(&self, index: usize) -> &[f32] {
        assert!(index < self.rows, "row index {index} out of bounds");
        &self.data[index * self.dim..(index + 1) * self.dim]
    }

    /// Mutably borrow a single row.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.rows()`.
    pub fn row_mut(&mut self, index: usize) -> &mut [f32] {
        assert!(index < self.rows, "row index {index} out of bounds");
        &mut self.data[index * self.dim..(index + 1) * self.dim]
    }

    /// Iterator over the rows of the matrix.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Iterator over the values of column `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.dim()`.
    pub fn column(&self, col: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(col < self.dim, "column index {col} out of bounds");
        (0..self.rows).map(move |r| self.data[r * self.dim + col])
    }

    /// The flat row-major data buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Dot product of row `index` with `query`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds or `query.len() != self.dim()`.
    pub fn row_dot(&self, index: usize, query: &[f32]) -> f32 {
        let row = self.row(index);
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        row.iter().zip(query).map(|(a, b)| a * b).sum()
    }

    /// Appends every row of `other` to this matrix (the streaming-append
    /// primitive: `O(other.rows() * dim)`, no reallocation of existing rows
    /// beyond the usual amortized `Vec` growth).
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::DimensionMismatch`] if `other` has a different
    /// embedding dimension.
    pub fn append_rows(&mut self, other: &Matrix) -> Result<(), AttentionError> {
        if other.dim != self.dim {
            return Err(AttentionError::DimensionMismatch {
                expected: self.dim,
                actual: other.dim,
            });
        }
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
        Ok(())
    }

    /// Overwrites row `index` with `row` (the streaming-update primitive).
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::DimensionMismatch`] if `row` has the wrong
    /// length and [`AttentionError::InvalidParameter`] if `index` is out of
    /// bounds.
    pub fn set_row(&mut self, index: usize, row: &[f32]) -> Result<(), AttentionError> {
        if row.len() != self.dim {
            return Err(AttentionError::DimensionMismatch {
                expected: self.dim,
                actual: row.len(),
            });
        }
        let slot = self
            .data
            .get_mut(index * self.dim..(index + 1) * self.dim)
            .ok_or(AttentionError::InvalidParameter {
                name: "index",
                constraint: "row index must be within the matrix",
            })?;
        slot.copy_from_slice(row);
        Ok(())
    }

    /// Validates that this (key) matrix, a value matrix and a query are mutually
    /// compatible for an attention operation.
    ///
    /// # Errors
    ///
    /// Returns the appropriate [`AttentionError`] variant when shapes disagree or the
    /// memory is empty.
    pub fn validate_attention(&self, values: &Matrix, query: &[f32]) -> Result<(), AttentionError> {
        if self.rows == 0 {
            return Err(AttentionError::EmptyMemory);
        }
        if self.rows != values.rows {
            return Err(AttentionError::RowCountMismatch {
                keys: self.rows,
                values: values.rows,
            });
        }
        if query.len() != self.dim {
            return Err(AttentionError::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        if values.dim != self.dim {
            return Err(AttentionError::DimensionMismatch {
                expected: self.dim,
                actual: values.dim,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap()
    }

    #[test]
    fn from_rows_and_accessors() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.row(2), &[7.0, 8.0, 9.0]);
        assert_eq!(m.column(1).collect::<Vec<_>>(), vec![2.0, 5.0, 8.0]);
        assert!(!m.is_empty());
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = Matrix::from_rows(vec![vec![1.0, 2.0], vec![1.0]]).unwrap_err();
        assert!(matches!(err, AttentionError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            Matrix::from_rows(vec![]),
            Err(AttentionError::EmptyMemory)
        ));
    }

    #[test]
    fn from_flat_checks_length() {
        assert!(Matrix::from_flat(vec![0.0; 6], 2, 3).is_ok());
        assert!(Matrix::from_flat(vec![0.0; 5], 2, 3).is_err());
    }

    #[test]
    fn row_dot_matches_manual() {
        let m = sample();
        let q = vec![1.0, 0.0, -1.0];
        assert_eq!(m.row_dot(0, &q), 1.0 - 3.0);
        assert_eq!(m.row_dot(2, &q), 7.0 - 9.0);
    }

    #[test]
    fn validate_attention_catches_mismatches() {
        let keys = sample();
        let values = sample();
        assert!(keys.validate_attention(&values, &[0.0; 3]).is_ok());
        assert!(matches!(
            keys.validate_attention(&values, &[0.0; 2]),
            Err(AttentionError::DimensionMismatch { .. })
        ));
        let short_values = Matrix::from_rows(vec![vec![0.0; 3]; 2]).unwrap();
        assert!(matches!(
            keys.validate_attention(&short_values, &[0.0; 3]),
            Err(AttentionError::RowCountMismatch { .. })
        ));
    }

    #[test]
    fn zeros_has_expected_shape() {
        let z = Matrix::zeros(4, 2);
        assert_eq!(z.rows(), 4);
        assert_eq!(z.dim(), 2);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let m = sample();
        let _ = m.row(10);
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let m = sample();
        assert_eq!(m.iter_rows().count(), 3);
    }

    #[test]
    fn append_rows_extends_and_checks_dimension() {
        let mut m = sample();
        let extra = Matrix::from_rows(vec![vec![10.0, 11.0, 12.0]]).unwrap();
        m.append_rows(&extra).unwrap();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.row(3), &[10.0, 11.0, 12.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        let wrong = Matrix::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            m.append_rows(&wrong),
            Err(AttentionError::DimensionMismatch { .. })
        ));
        assert_eq!(m.rows(), 4, "failed append must not change the matrix");
    }

    #[test]
    fn set_row_overwrites_and_checks_bounds() {
        let mut m = sample();
        m.set_row(1, &[-1.0, -2.0, -3.0]).unwrap();
        assert_eq!(m.row(1), &[-1.0, -2.0, -3.0]);
        assert!(matches!(
            m.set_row(1, &[0.0; 2]),
            Err(AttentionError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            m.set_row(3, &[0.0; 3]),
            Err(AttentionError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn row_mut_allows_in_place_update() {
        let mut m = sample();
        m.row_mut(0)[0] = 42.0;
        assert_eq!(m.row(0)[0], 42.0);
    }
}
