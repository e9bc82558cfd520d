//! Smoke tests for the experiment drivers: every figure/table driver must run and
//! produce non-empty, well-formed tables with reduced settings.

use a3::eval::experiments::{
    ablation, accuracy, backend_comparison, fig3, latency_model, multi_tenant, performance,
    serving, sharding, streaming, table1,
};
use a3::eval::EvalSettings;

fn tiny() -> EvalSettings {
    EvalSettings {
        memn2n_examples: 6,
        kv_examples: 4,
        bert_examples: 1,
        cases_per_workload: 2,
        seed: 17,
    }
}

#[test]
fn every_experiment_driver_produces_tables() {
    let settings = tiny();
    let mut all_tables = vec![fig3()];
    all_tables.extend(accuracy::fig11(&settings));
    all_tables.extend(accuracy::fig12(&settings));
    all_tables.extend(accuracy::fig13(&settings));
    all_tables.push(accuracy::quantization(&settings));
    all_tables.extend(performance::fig14(&settings));
    all_tables.extend(performance::fig15(&settings));
    all_tables.extend(table1());
    all_tables.push(latency_model(&settings));
    all_tables.extend(ablation(&settings));
    all_tables.extend(backend_comparison(&settings));
    all_tables.extend(serving(&settings));
    all_tables.extend(sharding(&settings));
    all_tables.extend(streaming(&settings));
    all_tables.extend(multi_tenant(&settings));
    assert!(all_tables.len() >= 21);
    for table in &all_tables {
        assert!(!table.is_empty(), "{} is empty", table.title);
        let rendered = table.render();
        assert!(rendered.contains(&table.title));
        for row in &table.rows {
            assert_eq!(row.len(), table.headers.len(), "{}", table.title);
        }
    }
}

#[test]
fn sharding_experiment_finds_a_break_even_shard_count_on_the_large_memory() {
    let tables = sharding(&tiny());
    let break_even = tables.last().unwrap();
    // For every backend on the n = 320 memory, some shard count must beat
    // single-unit end-to-end cycles (the acceptance criterion for memory sharding).
    let mut large_rows = 0;
    for row in 0..break_even.len() {
        if break_even.cell(row, 0) == Some("320") {
            large_rows += 1;
            assert_ne!(break_even.cell(row, 2), Some("none"), "row {row}");
        }
    }
    assert_eq!(large_rows, 4, "four backends on the large memory");
}

#[test]
fn figure14_shows_approximation_speedup_over_base() {
    let tables = performance::fig14(&tiny());
    let throughput = &tables[0];
    // For every workload, the aggressive A3 row's "vs Base A3" ratio exceeds 1.
    for row in 0..throughput.len() {
        if throughput.cell(row, 1) == Some("Approx. A3 (aggressive)") {
            let ratio: f64 = throughput
                .cell(row, 4)
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!(ratio > 1.0, "row {row}: ratio {ratio}");
        }
    }
}
