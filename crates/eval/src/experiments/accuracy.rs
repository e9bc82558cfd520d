//! Accuracy experiments: Figures 11, 12 and 13 plus the quantization study
//! (Section VI-B).

use a3_core::approx::{ApproxAttentionOutput, ApproxConfig};
use a3_core::attention::attention_with_scores;
use a3_core::backend::{ApproximateBackend, ComputeBackend, ExactBackend, QuantizedBackend};
use a3_fixed::QFormat;
use a3_workloads::metrics::top_k_recall;
use a3_workloads::{AttentionCase, Workload};

use crate::experiments::paper_workloads;
use crate::report::{fmt3, Table};
use crate::settings::EvalSettings;

/// The `M` sweep of Figure 11, as fractions of `n` (plus the exact baseline).
pub const FIG11_M_FRACTIONS: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.125];

/// The `T` sweep of Figure 12, in percent.
pub const FIG12_THRESHOLDS: [f64; 5] = [1.0, 2.5, 5.0, 10.0, 20.0];

/// Figure 11: impact of the candidate-selection scheme for varying iteration counts
/// `M`. Returns (a) the end-to-end accuracy table and (b) the normalized number of
/// selected candidates.
pub fn fig11(settings: &EvalSettings) -> Vec<Table> {
    let workloads = paper_workloads(settings);
    let mut accuracy = Table::new(
        "Figure 11a: end-to-end accuracy vs candidate-selection iterations M",
        &["Configuration", "MemN2N", "KV-MemN2N", "BERT"],
    );
    let mut row = vec!["No Approximation".to_owned()];
    for w in &workloads {
        row.push(fmt3(
            w.evaluate(&ExactBackend, settings.examples_for(w.kind())),
        ));
    }
    accuracy.push_row(row);
    for frac in FIG11_M_FRACTIONS {
        let backend = ApproximateBackend::new(ApproxConfig::candidate_only(frac));
        let mut row = vec![format!("M = {}n", frac)];
        for w in &workloads {
            row.push(fmt3(w.evaluate(&backend, settings.examples_for(w.kind()))));
        }
        accuracy.push_row(row);
    }

    let mut candidates = Table::new(
        "Figure 11b: normalized number of selected candidates",
        &["Configuration", "MemN2N", "KV-MemN2N", "BERT"],
    );
    for frac in FIG11_M_FRACTIONS {
        let config = ApproxConfig::candidate_only(frac);
        let mut row = vec![format!("M = {}n", frac)];
        for w in &workloads {
            let fraction = mean_over_cases(w.as_ref(), config, settings, |case, out| {
                out.work.candidates as f64 / case.n() as f64
            });
            row.push(fmt3(fraction));
        }
        candidates.push_row(row);
    }
    vec![accuracy, candidates]
}

/// Figure 12: impact of the post-scoring selection scheme for varying thresholds `T`.
/// Returns (a) the end-to-end accuracy table and (b) the normalized number of selected
/// entries.
pub fn fig12(settings: &EvalSettings) -> Vec<Table> {
    let workloads = paper_workloads(settings);
    let mut accuracy = Table::new(
        "Figure 12a: end-to-end accuracy vs post-scoring threshold T",
        &["Configuration", "MemN2N", "KV-MemN2N", "BERT"],
    );
    let mut row = vec!["No Approximation".to_owned()];
    for w in &workloads {
        row.push(fmt3(
            w.evaluate(&ExactBackend, settings.examples_for(w.kind())),
        ));
    }
    accuracy.push_row(row);
    for t in FIG12_THRESHOLDS {
        let backend = ApproximateBackend::new(ApproxConfig::post_scoring_only(t));
        let mut row = vec![format!("T = {t}%")];
        for w in &workloads {
            row.push(fmt3(w.evaluate(&backend, settings.examples_for(w.kind()))));
        }
        accuracy.push_row(row);
    }

    let mut selected = Table::new(
        "Figure 12b: normalized number of selected entries",
        &["Configuration", "MemN2N", "KV-MemN2N", "BERT"],
    );
    for t in FIG12_THRESHOLDS {
        let config = ApproxConfig::post_scoring_only(t);
        let mut row = vec![format!("T = {t}%")];
        for w in &workloads {
            let fraction = mean_over_cases(w.as_ref(), config, settings, |case, out| {
                out.work.selected as f64 / case.n() as f64
            });
            row.push(fmt3(fraction));
        }
        selected.push_row(row);
    }
    vec![accuracy, selected]
}

/// Figure 13: impact of the combined approximation schemes (conservative `M = n/2`,
/// `T = 5%`; aggressive `M = n/8`, `T = 10%`). Returns (a) end-to-end accuracy and (b)
/// the portion of the true top-k entries that survive approximation.
pub fn fig13(settings: &EvalSettings) -> Vec<Table> {
    let workloads = paper_workloads(settings);
    let configs: [(&str, Option<ApproxConfig>); 3] = [
        ("Base A3 (exact)", None),
        (
            "Approximate A3 (conservative)",
            Some(ApproxConfig::conservative()),
        ),
        (
            "Approximate A3 (aggressive)",
            Some(ApproxConfig::aggressive()),
        ),
    ];
    let mut accuracy = Table::new(
        "Figure 13a: end-to-end accuracy of the combined approximation schemes",
        &["Configuration", "MemN2N", "KV-MemN2N", "BERT"],
    );
    for (name, config) in &configs {
        let mut row = vec![(*name).to_owned()];
        for w in &workloads {
            let count = settings.examples_for(w.kind());
            let value = match config {
                None => w.evaluate(&ExactBackend, count),
                Some(c) => w.evaluate(&ApproximateBackend::new(*c), count),
            };
            row.push(fmt3(value));
        }
        accuracy.push_row(row);
    }

    let mut recall = Table::new(
        "Figure 13b: portion of true top-5 (top-2 for bAbI) entries selected",
        &["Configuration", "MemN2N", "KV-MemN2N", "BERT"],
    );
    for (name, config) in &configs {
        let mut row = vec![(*name).to_owned()];
        for w in &workloads {
            let value = match config {
                None => 1.0,
                // Top-k recall (k from the workload kind) of the approximation's
                // selected rows against the exact attention's true top-k rows.
                Some(c) => mean_over_cases(w.as_ref(), *c, settings, |case, out| {
                    let exact = attention_with_scores(&case.keys, &case.values, &case.query)
                        .expect("workload shapes are consistent");
                    top_k_recall(&exact.top_k(w.kind().top_k()), &out.selected)
                }),
            };
            row.push(fmt3(value));
        }
        recall.push_row(row);
    }
    vec![accuracy, recall]
}

/// Quantization study (Section VI-B): accuracy with fixed-point inputs of varying
/// fraction bits versus floating point. The paper reports that `f = 4` loses less than
/// 0.1% accuracy.
pub fn quantization(settings: &EvalSettings) -> Table {
    let workloads = paper_workloads(settings);
    let mut table = Table::new(
        "Quantization: accuracy with Q(i.f) fixed-point inputs (Section VI-B)",
        &["Configuration", "MemN2N", "KV-MemN2N", "BERT"],
    );
    let mut row = vec!["float32".to_owned()];
    for w in &workloads {
        row.push(fmt3(
            w.evaluate(&ExactBackend, settings.examples_for(w.kind())),
        ));
    }
    table.push_row(row);
    for f in [2u32, 4, 6] {
        let backend = QuantizedBackend::new(QFormat::new(4, f));
        let mut row = vec![format!("Q4.{f}")];
        for w in &workloads {
            row.push(fmt3(w.evaluate(&backend, settings.examples_for(w.kind()))));
        }
        table.push_row(row);
    }
    table
}

/// Mean of `per_case` over the workload's attention cases, each given the case and
/// its approximate attention under `config` (with the rows each stage kept).
fn mean_over_cases(
    workload: &dyn Workload,
    config: ApproxConfig,
    settings: &EvalSettings,
    per_case: impl Fn(&AttentionCase, &ApproxAttentionOutput) -> f64,
) -> f64 {
    let backend = ApproximateBackend::new(config);
    let cases = workload.attention_cases(settings.cases_per_workload);
    let mut sum = 0.0;
    for case in &cases {
        let out = backend
            .prepare(&case.keys, &case.values)
            .and_then(|memory| backend.attend_detailed(&memory, &case.query))
            .expect("workload shapes are consistent");
        sum += per_case(case, &out);
    }
    sum / cases.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EvalSettings {
        EvalSettings {
            memn2n_examples: 10,
            kv_examples: 6,
            bert_examples: 1,
            cases_per_workload: 3,
            seed: 7,
        }
    }

    #[test]
    fn fig11_tables_have_expected_shape_and_trends() {
        let tables = fig11(&tiny());
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 1 + FIG11_M_FRACTIONS.len());
        assert_eq!(tables[1].len(), FIG11_M_FRACTIONS.len());
        // Candidate fraction decreases (weakly) as M shrinks, for every workload.
        for col in 1..=3 {
            let first: f64 = tables[1].cell(0, col).unwrap().parse().unwrap();
            let last: f64 = tables[1]
                .cell(FIG11_M_FRACTIONS.len() - 1, col)
                .unwrap()
                .parse()
                .unwrap();
            assert!(last <= first + 1e-9, "col {col}: {last} > {first}");
            assert!(first <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn fig12_selected_fraction_decreases_with_threshold() {
        let tables = fig12(&tiny());
        assert_eq!(tables.len(), 2);
        for col in 1..=3 {
            let t1: f64 = tables[1].cell(0, col).unwrap().parse().unwrap();
            let t20: f64 = tables[1].cell(4, col).unwrap().parse().unwrap();
            assert!(t20 <= t1 + 1e-9, "col {col}");
        }
    }

    #[test]
    fn fig13_recall_is_one_for_exact_and_decreases_with_aggressiveness() {
        let tables = fig13(&tiny());
        assert_eq!(tables.len(), 2);
        for col in 1..=3 {
            let exact: f64 = tables[1].cell(0, col).unwrap().parse().unwrap();
            let cons: f64 = tables[1].cell(1, col).unwrap().parse().unwrap();
            let aggr: f64 = tables[1].cell(2, col).unwrap().parse().unwrap();
            assert!((exact - 1.0).abs() < 1e-9);
            assert!(cons + 1e-9 >= aggr, "col {col}: cons {cons} aggr {aggr}");
        }
    }

    #[test]
    fn quantization_table_has_four_rows() {
        let t = quantization(&EvalSettings {
            memn2n_examples: 6,
            kv_examples: 4,
            bert_examples: 1,
            cases_per_workload: 2,
            seed: 3,
        });
        assert_eq!(t.len(), 4);
    }
}
