//! Key-matrix preprocessing for the efficient greedy candidate search (Figure 7, lines
//! 1–5, and the `SortedKey` data structure of Figure 8).
//!
//! Each column of the key matrix is sorted independently (ascending), and each sorted
//! entry remembers the row it came from. In the paper this happens at *comprehension
//! time* — before the query arrives — so its cost is off the critical path (or, for
//! self-attention models such as BERT, amortized over the `n` queries that share one key
//! matrix).

use std::cell::Cell;

use serde::{Deserialize, Serialize};

use crate::Matrix;

thread_local! {
    /// Per-thread count of [`SortedKeyColumns::preprocess`] invocations.
    static PREPROCESS_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Number of key-matrix column sorts performed *by the current thread* so far.
///
/// Instrumentation for the preprocessing cache: a warm
/// [`MemoryCache`](crate::backend::MemoryCache) batch must leave this counter
/// untouched (zero key sorts), which the cache tests assert directly. The counter is
/// thread-local — every serving entry point runs on the calling thread — so
/// concurrently running tests cannot disturb each other's readings.
pub fn preprocess_count() -> u64 {
    PREPROCESS_COUNT.with(Cell::get)
}

/// One entry of a sorted key column: the key value and the row it came from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SortedEntry {
    /// Key-matrix element value.
    pub value: f32,
    /// Row index of this value in the original key matrix.
    pub row: u32,
}

/// The preprocessed key matrix: every column sorted ascending by value.
///
/// ```
/// use a3_core::{Matrix, approx::SortedKeyColumns};
/// let keys = Matrix::from_rows(vec![
///     vec![-0.6, 0.1, 0.8],
///     vec![0.1, -0.2, -0.9],
///     vec![0.8, 0.6, 0.7],
///     vec![0.5, 0.7, 0.5],
/// ]).unwrap();
/// let sorted = SortedKeyColumns::preprocess(&keys);
/// // Column 0 sorted ascending: -0.6 (row 0), 0.1 (row 1), 0.5 (row 3), 0.8 (row 2)
/// let col0: Vec<u32> = sorted.column(0).iter().map(|e| e.row).collect();
/// assert_eq!(col0, vec![0, 1, 3, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SortedKeyColumns {
    columns: Vec<Vec<SortedEntry>>,
    rows: usize,
}

impl SortedKeyColumns {
    /// Sorts every column of the key matrix (the paper's `preprocess` routine).
    ///
    /// Complexity: `O(d * n log n)`; performed once per key matrix, off the query
    /// critical path.
    pub fn preprocess(keys: &Matrix) -> Self {
        PREPROCESS_COUNT.with(|c| c.set(c.get() + 1));
        let columns = (0..keys.dim())
            .map(|c| {
                let mut col: Vec<SortedEntry> = keys
                    .column(c)
                    .enumerate()
                    .map(|(row, value)| SortedEntry {
                        value,
                        row: row as u32,
                    })
                    .collect();
                col.sort_by(|a, b| a.value.total_cmp(&b.value));
                col
            })
            .collect();
        Self {
            columns,
            rows: keys.rows(),
        }
    }

    /// Number of rows of the original key matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the embedding dimension `d`).
    pub fn dim(&self) -> usize {
        self.columns.len()
    }

    /// The sorted entries of column `c`, ascending by value.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.dim()`.
    pub fn column(&self, c: usize) -> &[SortedEntry] {
        &self.columns[c]
    }

    /// Mutable access to the per-column entry vectors, for the incremental
    /// maintenance routines in [`crate::approx::incremental`]. Callers must
    /// preserve the sorted-permutation invariant and keep [`Self::set_rows`]
    /// in sync.
    pub(crate) fn columns_mut(&mut self) -> &mut [Vec<SortedEntry>] {
        &mut self.columns
    }

    /// Updates the recorded row count after an incremental append, for the
    /// incremental maintenance routines in [`crate::approx::incremental`].
    pub(crate) fn set_rows(&mut self, rows: usize) {
        self.rows = rows;
    }

    /// Number of comparisons a column-wise merge sort would need, used by the analytic
    /// preprocessing-cost model (`d * n log2 n`).
    pub fn preprocess_comparisons(&self) -> u64 {
        let n = self.rows as f64;
        if self.rows <= 1 {
            return 0;
        }
        (self.dim() as f64 * n * n.log2()).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure8_keys() -> Matrix {
        Matrix::from_rows(vec![
            vec![-0.6, 0.1, 0.8],
            vec![0.1, -0.2, -0.9],
            vec![0.8, 0.6, 0.7],
            vec![0.5, 0.7, 0.5],
        ])
        .unwrap()
    }

    #[test]
    fn matches_figure8_sorted_columns() {
        let sorted = SortedKeyColumns::preprocess(&figure8_keys());
        // Figure 8 shows column 0 sorted as (-0.6,0), (0.1,1), (0.5,3), (0.8,2).
        let col0: Vec<(f32, u32)> = sorted.column(0).iter().map(|e| (e.value, e.row)).collect();
        assert_eq!(col0, vec![(-0.6, 0), (0.1, 1), (0.5, 3), (0.8, 2)]);
        // Column 1: (-0.2,1), (0.1,0), (0.6,2), (0.7,3).
        let col1: Vec<(f32, u32)> = sorted.column(1).iter().map(|e| (e.value, e.row)).collect();
        assert_eq!(col1, vec![(-0.2, 1), (0.1, 0), (0.6, 2), (0.7, 3)]);
        // Column 2: (-0.9,1), (0.5,3), (0.7,2), (0.8,0).
        let col2: Vec<(f32, u32)> = sorted.column(2).iter().map(|e| (e.value, e.row)).collect();
        assert_eq!(col2, vec![(-0.9, 1), (0.5, 3), (0.7, 2), (0.8, 0)]);
    }

    #[test]
    fn shape_accessors() {
        let sorted = SortedKeyColumns::preprocess(&figure8_keys());
        assert_eq!(sorted.rows(), 4);
        assert_eq!(sorted.dim(), 3);
    }

    #[test]
    fn every_column_is_sorted_and_a_permutation() {
        let keys = Matrix::from_rows(
            (0..50)
                .map(|i| {
                    (0..16)
                        .map(|j| ((i * 7 + j * 13) % 23) as f32 - 11.0)
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let sorted = SortedKeyColumns::preprocess(&keys);
        for c in 0..sorted.dim() {
            let col = sorted.column(c);
            assert!(col.windows(2).all(|w| w[0].value <= w[1].value));
            let mut rows: Vec<u32> = col.iter().map(|e| e.row).collect();
            rows.sort_unstable();
            assert_eq!(rows, (0..50u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn preprocess_comparisons_scale() {
        let keys = Matrix::zeros(64, 8);
        let sorted = SortedKeyColumns::preprocess(&keys);
        assert_eq!(sorted.preprocess_comparisons(), 8 * 64 * 6);
        let single = SortedKeyColumns::preprocess(&Matrix::zeros(1, 8));
        assert_eq!(single.preprocess_comparisons(), 0);
    }
}
