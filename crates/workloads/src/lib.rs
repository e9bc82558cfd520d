//! Synthetic attention workloads for the A3 reproduction.
//!
//! The paper evaluates A3 on three neural-network models:
//!
//! | paper workload | task | typical `n` | this crate |
//! |----------------|------|-------------|------------|
//! | End-to-End Memory Network (MemN2N) | Facebook bAbI QA | avg 20, max 50 | [`babi`], [`memn2n`] |
//! | Key-Value Memory Network (KV-MemN2N) | WikiMovies QA | avg 186 | [`wikimovies`], [`kvmemn2n`] |
//! | BERT (base) self-attention | SQuAD v1.1 | 320 | [`squad`], [`bert`] |
//!
//! We do not have the pretrained checkpoints or the licensed datasets, so each workload
//! is replaced by a *synthetic* equivalent. A3 changes only the attention operation,
//! so what its accuracy and performance depend on is the attention workload (its
//! `n`, its `d` and how the weight concentrates on a few rows), not the trained
//! weights around it. A deterministic generator produces tasks with the same structure
//! (a few relevant memory rows among many distractors, the paper's `n` and `d`), a
//! light-weight model embeds them with [`embedding::EmbeddingSpace`], and the model's
//! attention operations go through the pluggable
//! [`a3_core::backend::ComputeBackend`] serving layer so that
//! the exact, approximate and quantized/LUT datapaths can be compared — which is
//! exactly the experimental setup of the paper's Section VI-B accuracy study.
//!
//! Every workload also implements [`workload::Workload`], the interface the evaluation
//! harness (`a3-eval`) consumes.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod babi;
pub mod bert;
pub mod embedding;
pub mod kvmemn2n;
pub mod memn2n;
pub mod metrics;
pub mod squad;
pub mod vocab;
pub mod wikimovies;
pub mod workload;

pub use workload::{AttentionCase, Workload, WorkloadKind};
