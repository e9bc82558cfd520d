//! Umbrella crate for the A3 approximate-attention accelerator reproduction.
//!
//! This crate re-exports the individual workspace crates under one roof so examples,
//! integration tests and downstream users can depend on a single `a3` crate:
//!
//! * [`fixed`] — fixed-point arithmetic and the lookup-table exponent ([`a3_fixed`]),
//! * [`core`] — attention mechanisms and the approximation algorithms ([`a3_core`]),
//! * [`workloads`] — the synthetic MemN2N / KV-MemN2N / BERT workloads ([`a3_workloads`]),
//! * [`baselines`] — operation counts and CPU/GPU analytical models ([`a3_baselines`]),
//! * [`sim`] — the cycle-level accelerator simulator and energy model ([`a3_sim`]),
//! * [`eval`] — the experiment drivers that regenerate the paper's figures ([`a3_eval`]).
//!
//! # Quick start
//!
//! ```
//! use a3::core::backend::{ApproximateBackend, ComputeBackend};
//! use a3::core::Matrix;
//! use a3::sim::{A3Config, MemoryCache, PipelineModel};
//!
//! // Approximate attention over a small memory: preprocess it once, then attend.
//! let keys = Matrix::from_rows(vec![vec![0.9, 0.1], vec![-0.4, 0.6], vec![0.8, 0.2]]).unwrap();
//! let values = keys.clone();
//! let backend = ApproximateBackend::conservative();
//! let memory = backend.prepare(&keys, &values).unwrap();
//! let out = backend.attend_prepared(&memory, &[1.0, 0.3]).unwrap();
//!
//! // ...and the cycle cost of a batch of such queries on the accelerator.
//! let model = PipelineModel::new(A3Config::paper_conservative());
//! let queries = vec![vec![1.0, 0.3]];
//! let report = model.run_batch_with(&backend, &mut MemoryCache::new(1), &keys, &values, &queries);
//! assert!(report.total_cycles > 0);
//! assert_eq!(out.output.len(), 2);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use a3_baselines as baselines;
pub use a3_core as core;
pub use a3_eval as eval;
pub use a3_fixed as fixed;
pub use a3_sim as sim;
pub use a3_workloads as workloads;
