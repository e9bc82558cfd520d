//! BERT-style self-attention over a SQuAD-like passage (`n = 320`, `d = 64`), showing
//! how many A3 units are needed to match the GPU baseline's throughput — the Section
//! VI-C discussion of the paper.
//!
//! Run with: `cargo run --release --example bert_self_attention`

use a3::baselines::{Device, TitanV, XeonGold6128};
use a3::core::backend::{ApproximateBackend, ComputeBackend, ExactBackend};
use a3::sim::{A3Config, MemoryCache, MultiUnit, PipelineModel};
use a3::workloads::bert::BertLite;
use a3::workloads::squad::SquadGenerator;
use a3::workloads::Workload;

fn main() {
    let model = BertLite::new(21);
    let generator = SquadGenerator::new(21);
    let example = generator.generate(0);
    println!(
        "passage: {} tokens, question: {} tokens, answer span: {:?} ({:?})",
        example.passage.len(),
        example.question.len(),
        example.answer_span,
        example.answer_tokens()
    );

    // Task quality with exact vs approximate attention.
    for (name, backend) in [
        ("exact", Box::new(ExactBackend) as Box<dyn ComputeBackend>),
        (
            "approx (conservative)",
            Box::new(ApproximateBackend::conservative()),
        ),
        (
            "approx (aggressive)",
            Box::new(ApproximateBackend::aggressive()),
        ),
    ] {
        let span = model.predict_span(backend.as_ref(), &example);
        let f1 = a3::workloads::metrics::span_f1(span, example.answer_span);
        println!("{name:<22} predicted span {span:?}  F1 {f1:.3}");
    }
    let exact_f1 = model.evaluate(&ExactBackend, 8);
    println!("\nmean F1 over 8 passages (exact attention): {exact_f1:.3}");

    // Throughput: one self-attention layer issues n = 320 queries against the same
    // key matrix. Compare the accelerator with the CPU and GPU baselines.
    let case = model.attention_cases(1).remove(0);
    let queries: Vec<Vec<f32>> = (0..case.n()).map(|i| case.keys.row(i).to_vec()).collect();
    println!(
        "\n--- attention throughput for n = {}, d = {} ---",
        case.n(),
        case.d()
    );
    let cpu = XeonGold6128.estimate(case.n(), case.d(), 320);
    let gpu = TitanV.estimate(case.n(), case.d(), 320 * 12);
    println!("CPU  : {:>12.0} ops/s", cpu.throughput_ops_per_s);
    println!("GPU  : {:>12.0} ops/s", gpu.throughput_ops_per_s);
    for (name, config) in [
        ("Base A3", A3Config::paper_base()),
        ("Approx. A3 (conservative)", A3Config::paper_conservative()),
        ("Approx. A3 (aggressive)", A3Config::paper_aggressive()),
    ] {
        let pipeline = PipelineModel::new(config);
        let report = pipeline.run_batch_with(
            pipeline.backend().as_ref(),
            &mut MemoryCache::new(1),
            &case.keys,
            &case.values,
            &queries,
        );
        println!(
            "{name:<26}: {:>12.0} ops/s (single unit)",
            report.throughput_ops_per_s
        );
        if let Some(units) = MultiUnit::units_to_reach(config, &report, gpu.throughput_ops_per_s) {
            println!(
                "{name:<26}: {units} unit(s) needed to match the GPU ({:.1} mm^2 total)",
                MultiUnit::new(units, config).total_area_mm2()
            );
        }
    }
}
