//! Quickstart: run exact and approximate attention over a tiny memory (the paper's
//! Figure 6 example), then ask the cycle-level simulator what each would cost on the
//! accelerator.
//!
//! Run with: `cargo run --example quickstart`

use a3::core::attention::attention_with_scores;
use a3::core::backend::{ApproximateBackend, ComputeBackend};
use a3::core::Matrix;
use a3::sim::{A3Config, EnergyModel, PipelineModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The key matrix and query from Figure 6 of the paper.
    let keys = Matrix::from_rows(vec![
        vec![-0.6, 0.1, 0.8],
        vec![0.1, -0.2, -0.9],
        vec![0.8, 0.6, 0.7],
        vec![0.5, 0.7, 0.5],
    ])?;
    let values = Matrix::from_rows(vec![
        vec![1.0, 0.0, 0.0],
        vec![0.0, 1.0, 0.0],
        vec![0.0, 0.0, 1.0],
        vec![1.0, 1.0, 1.0],
    ])?;
    let query = vec![0.8, -0.3, 0.4];

    // Exact attention.
    let exact = attention_with_scores(&keys, &values, &query)?;
    println!("exact scores   : {:?}", exact.scores);
    println!("exact weights  : {:?}", exact.weights);
    println!("exact output   : {:?}", exact.output);
    println!("most relevant  : row {}", exact.argmax());

    // Approximate attention with the paper's conservative configuration.
    let approx = ApproximateBackend::conservative();
    let memory = approx.prepare(&keys, &values)?;
    let out = approx.attend_detailed(&memory, &query)?;
    println!("\ncandidates     : {:?}", out.candidates);
    println!("selected       : {:?}", out.selected);
    println!("approx output  : {:?}", out.result.output);
    println!(
        "work           : M={} C={} K={} (of n={})",
        out.work.m, out.work.candidates, out.work.selected, out.work.n
    );

    // What would this cost on the accelerator? (Use a small synthesized instance.)
    let mut config = A3Config::paper_conservative();
    config.n_max = 16;
    config.d = 3;
    let model = PipelineModel::new(config);
    let cost = model.run_query(&keys, &values, &query);
    println!(
        "\naccelerator    : latency {} cycles, {} cycles/query steady-state",
        cost.latency_cycles, cost.throughput_cycles
    );
    let report = model.aggregate(&[cost]);
    let energy = EnergyModel::new(config);
    println!(
        "energy         : {:.2} nJ per attention operation",
        1e9 / energy.ops_per_joule(&report)
    );
    Ok(())
}
