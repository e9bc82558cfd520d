//! Ablation studies for two of the paper's design choices: the two-half exponent
//! lookup table (Section III-A) and the dynamic post-scoring threshold (Section IV-D).

use a3_core::approx::{post_scoring_select, static_top_k};
use a3_core::attention::attention_with_scores;
use a3_fixed::{ExpLut, QFormat};
use a3_workloads::metrics::top_k_recall;

use crate::experiments::paper_workloads;
use crate::report::{fmt3, Table};
use crate::settings::EvalSettings;

/// Runs the ablation studies and returns their tables:
///
/// 1. exponent lookup-table organisation (two-half vs single table vs floating point),
/// 2. dynamic post-scoring threshold vs a static top-k cut.
pub fn ablation(settings: &EvalSettings) -> Vec<Table> {
    vec![exp_lut_ablation(), post_scoring_ablation(settings)]
}

/// Compares the three exponent-evaluation datapaths on table size and accuracy for a
/// 16-bit (Q8.8) input, the paper's example in Section III-A.
pub fn exp_lut_ablation() -> Table {
    let input = QFormat::new(8, 8);
    let output = QFormat::new(0, 8);
    let mut table = Table::new(
        "Ablation: exponent lookup-table organisation (Q8.8 input, Q0.8 output)",
        &[
            "Datapath",
            "Table entries",
            "Max abs error",
            "Mean abs error",
        ],
    );
    let variants = [
        ("two-half LUT (paper)", ExpLut::two_half(input, output)),
        ("single LUT", ExpLut::single(input, output)),
        (
            "float exp (reference)",
            ExpLut::float_reference(input, output),
        ),
    ];
    for (name, lut) in variants {
        let report = lut.report(-16.0, 1024);
        table.push_row(vec![
            name.to_owned(),
            report.table_entries.to_string(),
            format!("{:.5}", report.max_abs_error),
            format!("{:.5}", report.mean_abs_error),
        ]);
    }
    table
}

/// Compares the paper's dynamic post-scoring threshold (`T = 5%`) with a static top-5
/// cut on the true-top-k recall and the number of rows kept, over the workloads'
/// attention cases.
pub fn post_scoring_ablation(settings: &EvalSettings) -> Table {
    let mut table = Table::new(
        "Ablation: dynamic post-scoring threshold (T = 5%) vs static top-5",
        &[
            "Workload",
            "Dynamic recall",
            "Dynamic kept (avg rows)",
            "Static recall",
            "Static kept (avg rows)",
        ],
    );
    for w in paper_workloads(settings) {
        let k = w.kind().top_k();
        let cases = w.attention_cases(settings.cases_per_workload);
        let mut dyn_recall = 0.0;
        let mut dyn_kept = 0.0;
        let mut stat_recall = 0.0;
        let mut stat_kept = 0.0;
        for case in &cases {
            let exact = attention_with_scores(&case.keys, &case.values, &case.query)
                .expect("workload shapes are consistent");
            let rows: Vec<usize> = (0..case.n()).collect();
            let true_top = exact.top_k(k);
            let dynamic = post_scoring_select(&rows, &exact.scores, 5.0);
            let stat = static_top_k(&rows, &exact.scores, 5);
            dyn_recall += top_k_recall(&true_top, &dynamic);
            dyn_kept += dynamic.len() as f64;
            stat_recall += top_k_recall(&true_top, &stat);
            stat_kept += stat.len() as f64;
        }
        let count = cases.len() as f64;
        table.push_row(vec![
            w.name(),
            fmt3(dyn_recall / count),
            format!("{:.1}", dyn_kept / count),
            fmt3(stat_recall / count),
            format!("{:.1}", stat_kept / count),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_lut_ablation_shows_size_accuracy_tradeoff() {
        let t = exp_lut_ablation();
        assert_eq!(t.len(), 3);
        let two_half_entries: u64 = t.cell(0, 1).unwrap().parse().unwrap();
        let single_entries: u64 = t.cell(1, 1).unwrap().parse().unwrap();
        assert!(two_half_entries * 64 <= single_entries);
        let two_half_err: f64 = t.cell(0, 2).unwrap().parse().unwrap();
        assert!(two_half_err < 0.02);
    }

    #[test]
    fn post_scoring_ablation_has_one_row_per_workload() {
        let settings = EvalSettings {
            memn2n_examples: 2,
            kv_examples: 2,
            bert_examples: 1,
            cases_per_workload: 2,
            seed: 9,
        };
        let t = post_scoring_ablation(&settings);
        assert_eq!(t.len(), 3);
        // The dynamic scheme always keeps the top row, so recall is positive.
        for row in 0..3 {
            let recall: f64 = t.cell(row, 1).unwrap().parse().unwrap();
            assert!(recall > 0.0);
        }
    }
}
