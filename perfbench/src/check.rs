//! Output check and quality: every sampled response is compared with a direct
//! single-query call on the session's current memory, and its top rows with
//! an f64 exact-attention reference.

use std::time::Instant;

use a3_core::attention::AttentionResult;
use a3_core::backend::ComputeBackend;
use a3_core::serve::SessionMemory;

/// Rows compared by `recall_top5`.
const TOP: usize = 5;

#[derive(Debug, Default, Clone)]
pub struct CheckTally {
    pub checked: u64,
    pub mismatches: u64,
    pub recall_sum: f64,
    /// Wall time of each direct reference call: single-threaded
    /// `attend_prepared` / `attend_sharded` on the served queries.
    pub kernel_ns: Vec<f64>,
}

impl CheckTally {
    pub fn recall(&self) -> f64 {
        crate::stats::ratio(self.recall_sum, self.checked as f64)
    }

    /// Median over calls: one preempted call must not move it.
    pub fn kernel_ns_per_query(&self) -> f64 {
        crate::stats::median(&self.kernel_ns)
    }

    /// Checks one served result. Every backend here is deterministic on an
    /// unchanged memory, so the served result must equal the direct call bit
    /// for bit (the server's contract), approximate datapath included.
    pub fn check(
        &mut self,
        reference: &dyn ComputeBackend,
        memory: &SessionMemory,
        query: &[f32],
        served: &AttentionResult,
    ) {
        let start = Instant::now();
        let direct = match memory {
            SessionMemory::Whole(m) => reference.attend_prepared(m, query),
            SessionMemory::Sharded(s) => reference.attend_sharded(s, query),
        };
        self.kernel_ns.push(start.elapsed().as_nanos() as f64);
        self.checked += 1;
        if direct.as_ref() != Ok(served) {
            self.mismatches += 1;
        }
        self.recall_sum += recall_top(memory, query, &served.weights);
    }
}

/// Overlap between the `TOP` heaviest served rows and the `TOP` highest f64
/// exact scores (softmax is monotone, so the exact top weights are the top
/// scores), as a share of `TOP` (or of `n` for smaller memories).
pub fn recall_top(memory: &SessionMemory, query: &[f32], weights: &[f32]) -> f64 {
    let mut exact: Vec<f64> = Vec::with_capacity(weights.len());
    let mut add = |keys: &a3_core::Matrix| {
        exact.extend(keys.iter_rows().map(|row| {
            row.iter()
                .zip(query)
                .map(|(&k, &q)| f64::from(k) * f64::from(q))
                .sum::<f64>()
        }));
    };
    match memory {
        SessionMemory::Whole(m) => add(m.keys()),
        SessionMemory::Sharded(s) => s.shards().iter().for_each(|sh| add(sh.memory().keys())),
    }
    let served: Vec<f64> = weights.iter().map(|&w| f64::from(w)).collect();
    let (want, got) = (top_rows(&exact), top_rows(&served));
    let hits = got.iter().filter(|r| want.contains(r)).count();
    hits as f64 / want.len().max(1) as f64
}

/// Indices of the `TOP` largest values; ties go to the lower row.
fn top_rows(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
    order.truncate(TOP);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use a3_core::backend::ExactBackend;
    use a3_core::Matrix;
    use std::sync::Arc;

    #[test]
    fn exact_results_pass_and_tampered_results_fail() {
        let keys = Matrix::from_rows((0..8).map(|i| vec![i as f32 * 0.1, 1.0]).collect()).unwrap();
        let memory = SessionMemory::Whole(Arc::new(ExactBackend.prepare(&keys, &keys).unwrap()));
        let query = [1.0, 0.5];
        let mut served = ExactBackend.attend(&keys, &keys, &query).unwrap();
        let mut tally = CheckTally::default();
        tally.check(&ExactBackend, &memory, &query, &served);
        assert_eq!((tally.checked, tally.mismatches), (1, 0));
        assert_eq!(tally.recall(), 1.0);
        served.output[0] += 1e-6;
        tally.check(&ExactBackend, &memory, &query, &served);
        assert_eq!(tally.mismatches, 1);
    }

    #[test]
    fn recall_counts_top_row_overlap() {
        let keys = Matrix::from_rows((0..10).map(|i| vec![i as f32]).collect()).unwrap();
        let memory = SessionMemory::Whole(Arc::new(ExactBackend.prepare(&keys, &keys).unwrap()));
        // Exact top 5 for a positive query: rows 9..=5. Served favours 9..=7 and 0, 1.
        let weights = [0.5, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.6, 0.7, 0.8];
        assert!((recall_top(&memory, &[1.0], &weights) - 0.6).abs() < 1e-12);
    }
}
