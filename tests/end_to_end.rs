//! Cross-crate integration tests: workloads -> approximation -> simulator -> energy.

use a3::core::approx::ApproxConfig;
use a3::core::attention::attention_with_scores;
use a3::core::backend::{
    ApproximateBackend, ComputeBackend, ExactBackend, QuantizedBackend, SimdBackend,
};
use a3::core::Matrix;
use a3::sim::{A3Config, EnergyModel, MemoryCache, MultiUnit, PipelineModel};
use a3::workloads::bert::BertLite;
use a3::workloads::kvmemn2n::KvMemN2N;
use a3::workloads::memn2n::MemN2N;
use a3::workloads::metrics::top_k_recall;
use a3::workloads::{Workload, WorkloadKind};

/// The three paper workloads with reduced sizes where the full configuration would be
/// slow in a debug-mode test run.
fn workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(MemN2N::new(3)),
        Box::new(KvMemN2N::new(3)),
        Box::new(BertLite::small(3)),
    ]
}

#[test]
fn every_workload_produces_consistent_attention_cases() {
    for w in workloads() {
        let cases = w.attention_cases(4);
        assert_eq!(cases.len(), 4, "{}", w.name());
        for case in &cases {
            assert_eq!(case.keys.rows(), case.values.rows());
            assert_eq!(case.keys.dim(), case.query.len());
            assert!(!case.relevant_rows.is_empty());
            assert!(case.relevant_rows.iter().all(|&r| r < case.n()));
            // Exact attention must run on every generated case.
            let exact = attention_with_scores(&case.keys, &case.values, &case.query).unwrap();
            assert_eq!(exact.output.len(), case.d());
        }
    }
}

#[test]
fn approximation_prunes_work_but_keeps_relevant_rows_mostly() {
    for w in workloads() {
        let cases = w.attention_cases(6);
        let approx = ApproximateBackend::conservative();
        let mut kept = 0usize;
        let mut total = 0usize;
        for case in &cases {
            let memory = approx.prepare(&case.keys, &case.values).unwrap();
            let out = approx.attend_detailed(&memory, &case.query).unwrap();
            assert!(out.work.candidates <= case.n());
            assert!(out.work.selected <= out.work.candidates.max(1));
            let exact = attention_with_scores(&case.keys, &case.values, &case.query).unwrap();
            let true_top = exact.top_k(w.kind().top_k());
            kept += true_top.iter().filter(|r| out.selected.contains(r)).count();
            total += true_top.len();
        }
        let recall = kept as f64 / total as f64;
        // The memory-network cases have sharply skewed scores (high recall); the
        // synthetic BERT case's top-5 includes near-tied noise rows, so its bound is
        // looser (Figure 13b shows the same workload ordering).
        let min_recall = if w.kind() == WorkloadKind::Bert {
            0.3
        } else {
            0.5
        };
        assert!(
            recall > min_recall,
            "{}: conservative approximation kept only {recall:.2} of the true top rows",
            w.name()
        );
    }
}

#[test]
fn task_accuracy_degrades_gracefully_with_approximation() {
    // The paper's key accuracy claim (Figure 13a): the conservative scheme loses little
    // accuracy; the aggressive scheme loses more but does not collapse.
    let counts = [40usize, 12, 3];
    for (w, count) in workloads().into_iter().zip(counts) {
        let exact = w.evaluate(&ExactBackend, count);
        let conservative = w.evaluate(&ApproximateBackend::conservative(), count);
        let aggressive = w.evaluate(&ApproximateBackend::aggressive(), count);
        assert!(exact > 0.4, "{}: exact metric {exact}", w.name());
        assert!(
            conservative >= exact - 0.25,
            "{}: conservative {conservative} vs exact {exact}",
            w.name()
        );
        assert!(
            aggressive >= exact - 0.5,
            "{}: aggressive {aggressive} vs exact {exact}",
            w.name()
        );
    }
}

#[test]
fn quantized_pipeline_tracks_float_accuracy_on_memn2n() {
    let w = MemN2N::new(5);
    let float = w.evaluate(&ExactBackend, 30);
    let quant = w.evaluate(&QuantizedBackend::paper(), 30);
    assert!(
        (float - quant).abs() < 0.15,
        "float {float} vs quantized {quant}"
    );
}

#[test]
fn simd_backend_tracks_exact_across_workload_cases() {
    // The vectorised exact datapath must stay within 1e-5 of the scalar exact
    // backend on every workload's real attention cases (not just synthetic
    // memories), at whatever level the host dispatches to.
    let simd = SimdBackend::new();
    for w in workloads() {
        for case in w.attention_cases(4) {
            let exact = attention_with_scores(&case.keys, &case.values, &case.query).unwrap();
            let fast = simd.attend(&case.keys, &case.values, &case.query).unwrap();
            for (a, b) in fast.output.iter().zip(&exact.output) {
                assert!((a - b).abs() < 1e-5, "{}: {a} vs {b}", w.name());
            }
            for (a, b) in fast.weights.iter().zip(&exact.weights) {
                assert!((a - b).abs() < 1e-5, "{}: weight {a} vs {b}", w.name());
            }
        }
        // Task metrics run through the same `&dyn ComputeBackend` plumbing as every
        // other backend; with near-identical weights the metric stays close.
        let exact_metric = w.evaluate(&ExactBackend, 4);
        let simd_metric = w.evaluate(&simd, 4);
        assert!(
            (exact_metric - simd_metric).abs() < 0.26,
            "{}: exact {exact_metric} vs simd {simd_metric}",
            w.name()
        );
    }
}

#[test]
fn simulator_end_to_end_speedup_and_energy_ordering() {
    // Full chain: workload case -> approximation counts -> cycles -> energy.
    let w = KvMemN2N::new(9);
    let case = w.attention_cases(1).remove(0);
    let queries: Vec<Vec<f32>> = (0..8).map(|_| case.query.clone()).collect();
    let mut prev_throughput = 0.0;
    let mut prev_energy = f64::INFINITY;
    for config in [
        A3Config::paper_base(),
        A3Config::paper_conservative(),
        A3Config::paper_aggressive(),
    ] {
        let model = PipelineModel::new(config);
        let report = model.run_batch_with(
            model.backend().as_ref(),
            &mut MemoryCache::new(1),
            &case.keys,
            &case.values,
            &queries,
        );
        let energy = EnergyModel::new(config);
        let per_op_j = 1.0 / energy.ops_per_joule(&report);
        assert!(
            report.throughput_ops_per_s > prev_throughput,
            "throughput must improve with approximation"
        );
        assert!(
            per_op_j < prev_energy,
            "energy must improve with approximation"
        );
        prev_throughput = report.throughput_ops_per_s;
        prev_energy = per_op_j;
        // Average power can never exceed the Table I peak.
        assert!(energy.average_power_w(&report) < 0.111);
    }
}

#[test]
fn multi_unit_scaling_covers_bert_batch_parallelism() {
    let config = A3Config::paper_conservative();
    let model = PipelineModel::new(config);
    let cost = model.base_query_cost(320);
    let report = model.aggregate(&vec![cost; 16]);
    let four = MultiUnit::new(4, config);
    assert!(four.aggregate_throughput(&report) > 3.5 * report.throughput_ops_per_s);
    assert!(four.total_area_mm2() < 10.0);
}

#[test]
fn batched_front_end_matches_sequential_across_workloads() {
    // The batched multi-query front-end must be a pure wall-clock optimization: for
    // every workload's memory, attending a batch of queries yields bit-identical
    // outputs to attending them one at a time, and the simulator's batch report equals
    // the per-query aggregation.
    for w in workloads() {
        let case = w.attention_cases(1).remove(0);
        let queries: Vec<Vec<f32>> = (0..5)
            .map(|i| {
                let scale = 0.8 + 0.1 * i as f32;
                case.query.iter().map(|x| x * scale).collect()
            })
            .collect();
        let approx = ApproximateBackend::conservative();
        let query_matrix = Matrix::from_rows(queries.clone()).unwrap();
        let batch = approx
            .attend_batch(&case.keys, &case.values, &query_matrix)
            .unwrap();
        assert_eq!(batch.len(), queries.len(), "{}", w.name());
        for (query, out) in queries.iter().zip(&batch) {
            let sequential = approx.attend(&case.keys, &case.values, query).unwrap();
            assert_eq!(out, &sequential, "{}", w.name());
        }
        // Empty batches are legal and empty.
        let memory = approx.prepare(&case.keys, &case.values).unwrap();
        assert!(approx
            .attend_batch_prepared(&memory, &[])
            .unwrap()
            .is_empty());
        // Simulator batch report: one preprocessing pass, and otherwise exactly the
        // aggregate of the per-query costs.
        let model = PipelineModel::new(A3Config::paper_conservative());
        let mut report = model.run_batch_with(
            &approx,
            &mut MemoryCache::new(1),
            &case.keys,
            &case.values,
            &queries,
        );
        assert_eq!(report.queries, queries.len());
        assert_eq!(report.cache_misses, 1, "{}", w.name());
        report.cache_misses = 0;
        report.preprocessing_cycles = 0;
        let costs: Vec<_> = queries
            .iter()
            .map(|q| model.run_query(&case.keys, &case.values, q))
            .collect();
        assert_eq!(report, model.aggregate(&costs), "{}", w.name());
    }
}

#[test]
fn top_k_recall_matches_metric_definition_across_crates() {
    // Glue check between a3-core's selection output and a3-workloads' metric.
    let w = MemN2N::new(11);
    let case = w.attention_cases(1).remove(0);
    let exact = attention_with_scores(&case.keys, &case.values, &case.query).unwrap();
    let approx = ApproximateBackend::new(ApproxConfig::none());
    let memory = approx.prepare(&case.keys, &case.values).unwrap();
    let out = approx.attend_detailed(&memory, &case.query).unwrap();
    let recall = top_k_recall(&exact.top_k(WorkloadKind::MemN2N.top_k()), &out.selected);
    assert_eq!(recall, 1.0);
}
