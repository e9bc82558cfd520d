//! Experiment drivers that regenerate every table and figure of the A3 paper's
//! evaluation section (Section VI).
//!
//! Each experiment is a pure function that returns one or more [`report::Table`]s; the
//! `a3-repro` binary renders them to stdout. The mapping from paper figure/table to
//! driver is:
//!
//! | paper | driver |
//! |-------|--------|
//! | Figure 3 (time spent in attention) | [`experiments::fig3()`] |
//! | Figure 11 (candidate selection sweep over `M`) | [`experiments::accuracy::fig11`] |
//! | Figure 12 (post-scoring sweep over `T`) | [`experiments::accuracy::fig12`] |
//! | Figure 13 (combined conservative/aggressive schemes) | [`experiments::accuracy::fig13`] |
//! | Quantization study (Section VI-B) | [`experiments::accuracy::quantization`] |
//! | Figure 14 (throughput / latency vs CPU & GPU) | [`experiments::performance::fig14`] |
//! | Figure 15 (energy efficiency and breakdown) | [`experiments::performance::fig15`] |
//! | Table I (area and power) | [`experiments::table1()`] |
//! | Latency/throughput model (Section III-A / V-C) | [`experiments::latency_model`] |
//! | Design-choice ablations (exponent-table organisation, dynamic vs static post-scoring cut) | [`experiments::ablation()`] |

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bench_check;
pub mod experiments;
pub mod report;
pub mod settings;

pub use report::Table;
pub use settings::EvalSettings;
