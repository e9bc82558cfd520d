//! Attention mechanisms and the A3 approximation algorithms.
//!
//! This crate implements the algorithmic contribution of *A3: Accelerating Attention
//! Mechanisms in Neural Networks with Approximation* (Ham et al., HPCA 2020):
//!
//! * the reference soft attention mechanism (dot-product similarity, softmax, weighted
//!   sum — paper Figure 1) and the hardware-oriented reordering used by the base A3
//!   pipeline (Figure 5), in [`attention`];
//! * the greedy candidate-selection algorithm in both its naive `O(nd log nd)` form
//!   (Figure 6) and the efficient preprocessed form with per-column sorted keys and
//!   dual priority queues (Figures 7–8), in [`approx::candidate`];
//! * the dynamic post-scoring selection scheme (Section IV-D), in
//!   [`approx::post_scoring`];
//! * the end-to-end approximate attention pipeline combining the two with configurable
//!   `(M, T)` knobs ([`approx::ApproxConfig`]), served by
//!   [`backend::ApproximateBackend`], whose
//!   [`attend_detailed`](backend::ApproximateBackend::attend_detailed) also reports
//!   the rows each stage kept;
//! * a bit-accurate fixed-point (quantized) model of the base pipeline built on
//!   [`a3_fixed`], in [`quantized`];
//! * a vectorised exact datapath in [`backend::simd`]: [`backend::SimdBackend`] runs
//!   the same arithmetic as the exact backend through explicit-width AVX2 kernels
//!   (QK dot products, softmax reduction, weighted value accumulation), with the
//!   instruction set chosen once at construction by runtime feature detection and a
//!   safe scalar fallback (`A3_FORCE_SCALAR=1` forces it);
//! * the serving layer unifying the datapaths, in [`backend`]: every datapath is
//!   a [`backend::ComputeBackend`] with a query-independent
//!   [`backend::ComputeBackend::prepare`] phase producing a [`backend::PreparedMemory`],
//!   and a [`backend::MemoryCache`] keyed by memory fingerprint lets repeated batches
//!   against one memory skip the preprocessing entirely (paper Section IV-C); a
//!   [`backend::ShardedMemory`] splits one logical memory row-wise across shards
//!   (each independently cached) and [`backend::ComputeBackend::attend_sharded`]
//!   merges per-shard partials — log-sum-exp for the dense datapaths, candidate-set
//!   union for the approximate one, which then runs the same stages 2–4 as a whole
//!   memory;
//! * the request-oriented serving front-end, in [`serve`]: an [`serve::AttentionServer`]
//!   owns registered memories as sessions, accepts single-query deadline-tagged
//!   [`serve::Request`]s, and its weighted-fair dynamic batching decides which
//!   requests run together — bit-identical to direct per-query calls.
//!
//! # Quick start
//!
//! ```
//! use a3_core::{Matrix, attention::attention, backend::{ApproximateBackend, ComputeBackend}};
//!
//! // A tiny key/value memory with 4 rows of dimension 3 (the paper's Figure 6 example).
//! let key = Matrix::from_rows(vec![
//!     vec![-0.6, 0.1, 0.8],
//!     vec![0.1, -0.2, -0.9],
//!     vec![0.8, 0.6, 0.7],
//!     vec![0.5, 0.7, 0.5],
//! ]).unwrap();
//! let value = key.clone();
//! let query = vec![0.8, -0.3, 0.4];
//!
//! // Exact attention.
//! let exact = attention(&key, &value, &query).unwrap();
//!
//! // Approximate attention with the paper's "conservative" configuration.
//! let approx = ApproximateBackend::conservative();
//! let memory = approx.prepare(&key, &value).unwrap();
//! let out = approx.attend_detailed(&memory, &query).unwrap();
//! assert_eq!(out.result.output.len(), exact.len());
//! assert!(out.selected.iter().all(|row| out.candidates.contains(row)));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod approx;
pub mod attention;
pub mod backend;
mod error;
mod matrix;
pub mod quantized;
pub mod serve;

pub use error::{AttentionError, ServeError};
pub use matrix::Matrix;

/// The embedding dimension used for every workload in the paper's evaluation.
pub const PAPER_D: usize = 64;
