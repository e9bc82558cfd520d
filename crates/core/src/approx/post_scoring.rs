//! Post-scoring approximation (paper Section IV-D).
//!
//! After the full dot-product scores of the candidate rows are known, rows whose score
//! is more than `t` below the maximum score are dropped before the softmax and the
//! weighted sum. Because softmax exponentiates the scores, a row that is `t` below the
//! maximum would have received a post-softmax weight at most `e^-t` times the maximum
//! weight; the paper parameterizes this as `T = 100 * e^-t` percent.

/// Dynamic post-scoring selection: keeps the rows whose score is within
/// `t = ln(100 / threshold_percent)` of the maximum score.
///
/// `rows` and `scores` are parallel slices: `scores[i]` is the dot-product score of
/// `rows[i]`. The returned indices are a subset of `rows`, in ascending row order. The
/// top-scoring row is always kept. An empty input produces an empty output.
///
/// # Panics
///
/// Panics if the slices have different lengths or `threshold_percent` is not in
/// `(0, 100]`.
pub fn post_scoring_select(rows: &[usize], scores: &[f32], threshold_percent: f64) -> Vec<usize> {
    assert_eq!(rows.len(), scores.len(), "rows/scores length mismatch");
    let in_range = threshold_percent > 0.0 && threshold_percent <= 100.0;
    assert!(in_range, "threshold must be in (0, 100] percent");
    if rows.is_empty() {
        return Vec::new();
    }
    let max_score = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let margin = (100.0 / threshold_percent).ln() as f32;
    let mut selected: Vec<usize> = rows
        .iter()
        .zip(scores)
        .filter(|(_, &s)| max_score - s <= margin)
        .map(|(&r, _)| r)
        .collect();
    selected.sort_unstable();
    selected
}

/// Static top-`k` selection (the simpler alternative the paper argues against in
/// Section IV-D): keeps the `k` highest-scoring rows regardless of the score
/// distribution. Used by the ablation study.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn static_top_k(rows: &[usize], scores: &[f32], k: usize) -> Vec<usize> {
    assert_eq!(rows.len(), scores.len(), "rows/scores length mismatch");
    let mut order: Vec<(usize, f32)> = rows.iter().copied().zip(scores.iter().copied()).collect();
    order.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut selected: Vec<usize> = order.into_iter().take(k).map(|(row, _)| row).collect();
    selected.sort_unstable();
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_rows_within_margin() {
        // T = 5% => margin = ln(20) ~ 3.0. Rows within 3.0 of the max survive.
        let rows = [0, 1, 2, 3];
        let scores = [10.0, 8.0, 6.5, 2.0];
        let selected = post_scoring_select(&rows, &scores, 5.0);
        assert_eq!(selected, vec![0, 1]);
    }

    #[test]
    fn top_row_always_kept() {
        let selected = post_scoring_select(&[7], &[0.01], 1.0);
        assert_eq!(selected, vec![7]);
    }

    #[test]
    fn lower_threshold_is_more_conservative() {
        let rows: Vec<usize> = (0..10).collect();
        let scores: Vec<f32> = (0..10).map(|i| -(i as f32)).collect();
        let t1 = post_scoring_select(&rows, &scores, 1.0);
        let t10 = post_scoring_select(&rows, &scores, 10.0);
        let t20 = post_scoring_select(&rows, &scores, 20.0);
        assert!(t1.len() >= t10.len());
        assert!(t10.len() >= t20.len());
    }

    #[test]
    fn t_100_keeps_only_ties_with_max() {
        let rows = [0, 1, 2];
        let scores = [5.0, 5.0, 4.9];
        let selected = post_scoring_select(&rows, &scores, 100.0);
        assert_eq!(selected, vec![0, 1]);
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(post_scoring_select(&[], &[], 5.0).is_empty());
    }

    #[test]
    fn matches_post_softmax_weight_semantics() {
        // A surviving row's softmax weight must be at least T% of the maximum weight.
        let rows: Vec<usize> = (0..6).collect();
        let scores = [3.0f32, 2.5, 1.0, 0.2, -1.0, -4.0];
        let t = 10.0;
        let selected = post_scoring_select(&rows, &scores, t);
        let max = 3.0f32;
        for &r in &selected {
            let ratio = ((scores[r] - max) as f64).exp() * 100.0;
            assert!(ratio >= t - 1e-6, "row {r} ratio {ratio}");
        }
        for (r, &score) in scores.iter().enumerate() {
            if !selected.contains(&r) {
                let ratio = ((score - max) as f64).exp() * 100.0;
                assert!(ratio < t + 1e-6, "row {r} should have been kept ({ratio})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_rejected() {
        let _ = post_scoring_select(&[0], &[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_slices_rejected() {
        let _ = post_scoring_select(&[0, 1], &[1.0], 5.0);
    }

    #[test]
    fn static_top_k_selects_highest_scores() {
        let rows = [10, 20, 30, 40];
        let scores = [0.5, 3.0, -1.0, 2.0];
        assert_eq!(static_top_k(&rows, &scores, 2), vec![20, 40]);
        assert_eq!(static_top_k(&rows, &scores, 0), Vec::<usize>::new());
        assert_eq!(static_top_k(&rows, &scores, 10), vec![10, 20, 30, 40]);
    }
}
