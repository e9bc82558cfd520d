//! Conventional-hardware baselines for the A3 evaluation.
//!
//! The paper compares A3 against an Intel Xeon Gold 6128 CPU (all workloads) and an
//! NVIDIA Titan V GPU (BERT only), both running attention as dense matrix operations
//! (Section VI-C). We cannot measure those machines, so this crate provides:
//!
//! * [`opcount`] — closed-form operation counts for the attention mechanism
//!   (Section II-B) and for the surrounding model layers, used to reproduce Figure 3
//!   (fraction of time spent in attention);
//! * [`device`], [`cpu`], [`gpu`] — analytical roofline-style performance and
//!   TDP-based energy models of the two baseline devices, used by the Figure 14/15
//!   comparisons. With neither machine at hand, each is modelled from its published
//!   peak compute, memory bandwidth and TDP, which the paper also charges the
//!   baselines (Section VI-D).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cpu;
pub mod device;
pub mod gpu;
pub mod opcount;

pub use cpu::XeonGold6128;
pub use device::{Device, DeviceEstimate};
pub use gpu::TitanV;
pub use opcount::{attention_op_counts, AttentionOpCounts, ModelOpProfile};
