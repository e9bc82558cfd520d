//! The base (naive) greedy candidate search of Section IV-B / Figure 6.
//!
//! This variant materializes the full element-wise product matrix between the replicated
//! query and the key matrix, sorts all `n*d` products, and then walks them from the
//! largest downwards (and from the smallest upwards) for `M` iterations, accumulating
//! the greedy score exactly like the efficient algorithm of
//! [`select_candidates`](crate::approx::select_candidates).
//!
//! Its `O(nd log nd)` cost makes it useless as a runtime algorithm — that is the point
//! the paper makes before introducing the preprocessed version — but it is retained
//! here as the executable specification: the property tests assert that the efficient
//! algorithm produces identical results (up to floating-point tie-breaking on duplicate
//! products).

use crate::approx::candidate::CandidateSelection;
use crate::Matrix;

/// One element of the replicated-query element-wise product matrix.
#[derive(Debug, Clone, Copy)]
struct ProductEntry {
    score: f32,
    row: u32,
    col: u32,
}

/// Runs the naive `O(nd log nd)` greedy candidate search for `m` iterations.
///
/// Functionally identical to [`select_candidates`](crate::approx::select_candidates)
/// (which should be preferred); see the module documentation.
///
/// # Panics
///
/// Panics if `query.len() != keys.dim()`.
pub fn select_candidates_naive(keys: &Matrix, query: &[f32], m: usize) -> CandidateSelection {
    assert_eq!(query.len(), keys.dim(), "query dimension mismatch");
    let n = keys.rows();
    let d = keys.dim();
    if n == 0 || d == 0 || m == 0 {
        return CandidateSelection::untouched(n);
    }
    let mut greedy_scores = vec![0.0f32; n];

    // Element-wise multiplication of the key matrix with the replicated query.
    let mut products: Vec<ProductEntry> = Vec::with_capacity(n * d);
    for (row, key_row) in keys.iter_rows().enumerate() {
        for (col, (&k, &q)) in key_row.iter().zip(query).enumerate() {
            products.push(ProductEntry {
                score: k * q,
                row: row as u32,
                col: col as u32,
            });
        }
    }

    // Descending order for the "kth largest" walk, ascending for the "kth smallest" walk.
    // Ties are broken by (column, row) to mirror the efficient implementation's rule:
    // the highest column first on the max side, the lowest on the min side.
    let mut descending: Vec<&ProductEntry> = products.iter().collect();
    descending.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(b.col.cmp(&a.col))
            .then(b.row.cmp(&a.row))
    });
    let mut ascending: Vec<&ProductEntry> = products.iter().collect();
    ascending.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then(a.col.cmp(&b.col))
            .then(a.row.cmp(&b.row))
    });

    let mut cumulative_sum = 0.0f32;
    let mut min_ops_skipped = 0usize;
    let mut iterations = 0usize;
    let mut min_cursor = 0usize;
    for top in descending.iter().take(m) {
        iterations += 1;
        cumulative_sum += top.score;
        if top.score > 0.0 {
            if let Some(score) = greedy_scores.get_mut(top.row as usize) {
                *score += top.score;
            }
        }
        if cumulative_sum < 0.0 {
            min_ops_skipped += 1;
            continue;
        }
        if let Some(bottom) = ascending.get(min_cursor) {
            min_cursor += 1;
            cumulative_sum += bottom.score;
            if bottom.score < 0.0 {
                if let Some(score) = greedy_scores.get_mut(bottom.row as usize) {
                    *score += bottom.score;
                }
            }
        }
    }
    CandidateSelection::from_scores(greedy_scores, iterations, min_ops_skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{select_candidates, SortedKeyColumns};

    fn figure6_keys() -> Matrix {
        Matrix::from_rows(vec![
            vec![-0.6, 0.1, 0.8],
            vec![0.1, -0.2, -0.9],
            vec![0.8, 0.6, 0.7],
            vec![0.5, 0.7, 0.5],
        ])
        .unwrap()
    }

    #[test]
    fn reproduces_figure6_trace() {
        let keys = figure6_keys();
        let query = vec![0.8, -0.3, 0.4];
        let sel = select_candidates_naive(&keys, &query, 3);
        let expected = [-0.16f32, -0.36, 0.64, 0.19];
        for (g, e) in sel.greedy_scores.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-5);
        }
        assert_eq!(sel.candidates, vec![2, 3]);
    }

    #[test]
    fn matches_efficient_implementation_on_example() {
        let keys = figure6_keys();
        let query = vec![0.8, -0.3, 0.4];
        let sorted = SortedKeyColumns::preprocess(&keys);
        for m in 1..=10 {
            let naive = select_candidates_naive(&keys, &query, m);
            let efficient = select_candidates(&sorted, &query, m);
            assert_eq!(naive.candidates, efficient.candidates, "m = {m}");
            for (a, b) in naive.greedy_scores.iter().zip(&efficient.greedy_scores) {
                assert!((a - b).abs() < 1e-5, "m = {m}");
            }
        }
    }

    #[test]
    fn matches_efficient_on_pseudorandom_matrices() {
        // Deterministic pseudo-random data without duplicate products.
        let n = 30;
        let d = 12;
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 23) as f32 - 0.5
        };
        let rows: Vec<Vec<f32>> = (0..n).map(|_| (0..d).map(|_| next()).collect()).collect();
        let keys = Matrix::from_rows(rows).unwrap();
        let query: Vec<f32> = (0..d).map(|_| next()).collect();
        let sorted = SortedKeyColumns::preprocess(&keys);
        for m in [1, 3, n / 4, n / 2, n] {
            let naive = select_candidates_naive(&keys, &query, m);
            let efficient = select_candidates(&sorted, &query, m);
            assert_eq!(naive.candidates, efficient.candidates, "m = {m}");
            assert_eq!(naive.min_ops_skipped, efficient.min_ops_skipped, "m = {m}");
        }
    }

    #[test]
    fn zero_iterations_is_empty() {
        let sel = select_candidates_naive(&figure6_keys(), &[0.8, -0.3, 0.4], 0);
        assert!(sel.candidates.is_empty());
    }

    #[test]
    #[should_panic(expected = "query dimension")]
    fn dimension_mismatch_panics() {
        let _ = select_candidates_naive(&figure6_keys(), &[1.0], 2);
    }
}
