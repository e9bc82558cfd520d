//! Cycle-level performance, power, energy and area model of the A3 accelerator.
//!
//! The crate models the hardware described in Sections III and V of the paper:
//!
//! * [`config`] — the synthesis-time configuration (`n`, `d`, clock, scan width)
//!   and the run-time approximation knobs;
//! * [`pipeline`] — the cycle model of the base three-module pipeline (latency
//!   `3n + 27`, throughput `n + 9` cycles/query) and of the five-module approximate
//!   pipeline (latency `M + C + 2K + α`, throughput limited by the candidate selector),
//!   driven by the *actual* candidate/selection counts produced by the algorithms in
//!   [`a3_core`];
//! * [`energy`] — the per-module area and power characteristics of Table I and an
//!   activity-based energy model that reproduces Figure 15;
//! * [`multi_unit`] — scaling across multiple A3 units (Section III-C and the BERT
//!   discussion of Section VI-C): actual sharded execution of one row-split memory
//!   with an explicit cross-shard merge stage, plus the paper's analytic
//!   independent-operation formula kept as a cross-check;
//! * [`server`] — a discrete-event queue model of the request-oriented serving
//!   front-end: replays a request trace through a real
//!   [`a3_core::serve::AttentionServer`], which decides token-bucket admission and
//!   weighted-fair dynamic batching, and charges batching wait, queueing delay,
//!   preprocessing-on-miss and accelerator cycles into per-request latency on its
//!   own cycle clock.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod energy;
pub mod multi_unit;
pub mod pipeline;
pub mod server;

pub use config::A3Config;
pub use energy::{EnergyBreakdown, EnergyModel, ModuleCharacteristics, TableI};
pub use multi_unit::{merge_query_cycles, MultiUnit, ShardedSimReport, MERGE_ALPHA, MERGE_LANES};
pub use pipeline::{PipelineModel, QueryCost, SimReport};
pub use server::{poisson_arrival_cycles, RequestOutcome, ServerSim, TenantReport, TraceRequest};

// Re-exported so simulator callers can drive the cached serving entry points without
// depending on `a3_core::backend` directly.
pub use a3_core::backend::{CacheAdmission, ComputeBackend, MemoryCache, ShardPlan, ShardedMemory};
// Re-exported so request-trace callers can build policies and tenant
// configurations without depending on `a3_core::serve` directly.
pub use a3_core::serve::{BatchPolicy, Priority, RateLimit, TenantConfig, TenantId};
