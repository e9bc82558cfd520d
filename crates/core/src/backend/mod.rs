//! Pluggable compute backends with a two-phase *prepare / attend* serving API.
//!
//! A3's central architectural observation (Section IV-C) is that one attention
//! operation can be served by different datapaths — exact floating point, the
//! approximate candidate-selection pipeline, or the fixed-point/LUT hardware pipeline —
//! and that every datapath splits into a **query-independent preprocessing phase**
//! (performed once per key/value memory, at "comprehension time") and a **per-query
//! phase**. A [`ComputeBackend`] makes that split explicit:
//!
//! 1. [`ComputeBackend::prepare`] turns a key/value memory into a [`PreparedMemory`]
//!    carrying whatever the backend precomputes: nothing for [`ExactBackend`] (and
//!    its vectorised twin [`SimdBackend`], which runs the same exact arithmetic
//!    through runtime-dispatched AVX2 kernels), the per-column sorted key matrix for
//!    [`ApproximateBackend`], and the quantized key/value matrices plus the pipeline
//!    formats for [`QuantizedBackend`] (whose exponent lookup tables are built once
//!    per format and shared by every memory).
//! 2. [`ComputeBackend::attend_prepared`] / [`ComputeBackend::attend_batch_prepared`]
//!    serve queries against the prepared memory. The results are **bit-identical** to
//!    the one-shot [`ComputeBackend::attend`]; preparation is a pure wall-clock
//!    optimization. [`ComputeBackend::attend_batch_owned`] serves a batch whose
//!    queries the caller hands over, with the same bits: the exact, SIMD and
//!    quantized backends write each output into its query's buffer once the query
//!    is read, so a query's output costs no allocation.
//!
//! Repeated batches against the same memory should go through a [`MemoryCache`], which
//! keys prepared memories by a fingerprint of the memory contents so the preprocessing
//! runs only on the first batch (the multi-query serving pattern of Section IV-C).
//!
//! A memory too large (or too hot) for one unit can be split row-wise across shards:
//! [`ShardedMemory`] prepares each shard independently (per-shard cache keys), and
//! [`ComputeBackend::attend_sharded`] runs per-shard partials and merges them — a
//! log-sum-exp rescale for the dense datapaths, a candidate-set union for the
//! approximate one, whose stages 2–4 (dot products, post-scoring, softmax and the
//! weighted sum) are the same function the whole-memory attend runs. See the
//! [`shard`](self) module docs on [`ShardedMemory`].
//!
//! [`ApproximateBackend::attend_detailed`] is the approximate datapath's one entry
//! point beyond the trait: it also reports the rows candidate selection and
//! post-scoring kept, and the work counts `profile` returns.
//!
//! ```
//! use a3_core::backend::{ApproximateBackend, ComputeBackend, MemoryCache};
//! use a3_core::Matrix;
//!
//! let keys = Matrix::from_rows(vec![vec![1.0, 0.0], vec![-1.0, 0.5], vec![0.9, 0.1]]).unwrap();
//! let values = keys.clone();
//! let backend = ApproximateBackend::conservative();
//!
//! let mut cache = MemoryCache::new(4);
//! let (memory, hit) = cache.get_or_prepare(&backend, &keys, &values).unwrap();
//! assert!(!hit); // first batch: preprocessing runs
//! let out = backend.attend_prepared(&memory, &[1.0, 0.0]).unwrap();
//! assert_eq!(out.output.len(), 2);
//!
//! let (_, hit) = cache.get_or_prepare(&backend, &keys, &values).unwrap();
//! assert!(hit); // same memory: preprocessing skipped entirely
//! ```

mod cache;
#[cfg(target_arch = "x86_64")]
pub mod quantized_simd;
mod shard;
pub mod simd;

pub use cache::{CacheAdmission, MemoryCache};
pub use shard::{
    merge_partial_softmax, MemoryShard, ShardMutationStats, ShardPlan, ShardPrepareStats,
    ShardedMemory,
};
pub use simd::{SimdBackend, SimdLevel};

use crate::approx::{
    post_scoring_select, select_candidates, ApproxAttentionOutput, ApproxConfig, SortedKeyColumns,
};
use crate::attention::{attend_exact, attention_with_scores, stable_softmax, AttentionResult};
use crate::quantized::QuantizedMemory;
use crate::{AttentionError, Matrix};
use a3_fixed::QFormat;

/// Backend-specific preprocessed state carried by a [`PreparedMemory`].
#[derive(Debug, Clone)]
pub enum PreparedState {
    /// Exact floating point needs no preprocessing.
    Exact,
    /// Per-column sorted key matrix (Figure 7/8) for greedy candidate selection.
    Sorted(SortedKeyColumns),
    /// Quantized key/value matrices and per-stage formats for the fixed-point
    /// base pipeline, with a handle on the shared exponent LUTs (boxed: the
    /// prepared pipeline state is much larger than the other variants).
    Quantized(Box<QuantizedMemory>),
}

impl PreparedState {
    /// Short label used in mismatch errors and debug output.
    pub fn label(&self) -> &'static str {
        match self {
            PreparedState::Exact => "exact",
            PreparedState::Sorted(_) => "sorted",
            PreparedState::Quantized(_) => "quantized",
        }
    }
}

/// A key/value memory together with one backend's preprocessing of it.
///
/// Produced by [`ComputeBackend::prepare`]; consumed by
/// [`ComputeBackend::attend_prepared`]. The memory owns a copy of the key and value
/// matrices so a prepared memory is self-contained (it can sit in a [`MemoryCache`]
/// after the caller's matrices are gone, exactly like the on-chip SRAM copies the
/// hardware keeps resident across queries).
#[derive(Debug, Clone)]
pub struct PreparedMemory {
    keys: Matrix,
    values: Matrix,
    preprocess_ops: u64,
    state: PreparedState,
}

impl PreparedMemory {
    /// Assembles a prepared memory. Intended for [`ComputeBackend::prepare`]
    /// implementations; validates that keys and values are a consistent memory.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::EmptyMemory`] when `keys` has no rows,
    /// [`AttentionError::InvalidParameter`] when its rows have no elements,
    /// [`AttentionError::RowCountMismatch`] when `values` disagrees with `keys`
    /// on the number of rows, and [`AttentionError::DimensionMismatch`] when
    /// the two matrices disagree on the feature dimension.
    pub fn new(
        keys: &Matrix,
        values: &Matrix,
        preprocess_ops: u64,
        state: PreparedState,
    ) -> Result<Self, AttentionError> {
        validate_memory(keys, values)?;
        Ok(Self {
            keys: keys.clone(),
            values: values.clone(),
            preprocess_ops,
            state,
        })
    }

    /// The key matrix.
    pub fn keys(&self) -> &Matrix {
        &self.keys
    }

    /// The value matrix.
    pub fn values(&self) -> &Matrix {
        &self.values
    }

    /// Number of memory rows (`n`).
    pub fn n(&self) -> usize {
        self.keys.rows()
    }

    /// Embedding dimension (`d`).
    pub fn d(&self) -> usize {
        self.keys.dim()
    }

    /// Number of element-level operations the preprocessing performed (sort
    /// comparisons, quantizations, ...). The cycle-level simulator converts this into
    /// host-side preprocessing cycles charged on a cache miss.
    pub fn preprocess_ops(&self) -> u64 {
        self.preprocess_ops
    }

    /// The backend-specific preprocessed state.
    pub fn state(&self) -> &PreparedState {
        &self.state
    }

    /// The sorted key columns, if this memory was prepared by an approximate backend.
    pub fn sorted(&self) -> Option<&SortedKeyColumns> {
        match &self.state {
            PreparedState::Sorted(s) => Some(s),
            _ => None,
        }
    }

    /// The quantized memory, if this memory was prepared by a quantized backend.
    pub fn quantized(&self) -> Option<&QuantizedMemory> {
        match &self.state {
            PreparedState::Quantized(q) => Some(q),
            _ => None,
        }
    }

    fn validate_query(&self, query: &[f32]) -> Result<(), AttentionError> {
        if query.len() != self.d() {
            return Err(AttentionError::DimensionMismatch {
                expected: self.d(),
                actual: query.len(),
            });
        }
        Ok(())
    }
}

/// Validates that `keys` and `values` form a consistent non-empty memory whose
/// rows have at least one element.
pub(crate) fn validate_memory(keys: &Matrix, values: &Matrix) -> Result<(), AttentionError> {
    if keys.is_empty() {
        return Err(AttentionError::EmptyMemory);
    }
    if keys.dim() == 0 {
        return Err(AttentionError::InvalidParameter {
            name: "keys",
            constraint: "memory rows must have at least one element",
        });
    }
    if keys.rows() != values.rows() {
        return Err(AttentionError::RowCountMismatch {
            keys: keys.rows(),
            values: values.rows(),
        });
    }
    if keys.dim() != values.dim() {
        return Err(AttentionError::DimensionMismatch {
            expected: keys.dim(),
            actual: values.dim(),
        });
    }
    Ok(())
}

/// Seed of the fingerprint's shape hash (hexadecimal digits of pi).
const SEED_A: u64 = 0x243f_6a88_85a3_08d3;
/// Odd multipliers of the fingerprint mix (digits of e, and the golden ratio).
const MUL_A: u64 = 0xb7e1_5162_8aed_2a6b;
const MUL_B: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 128-bit product of `a` and `b` folded to 64 bits (high half xor low
/// half). Unlike a wrapping multiply, where a bit only reaches the bits above
/// it, every input bit reaches every output bit.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The murmur3 64-bit finalizer: a bijection in which every input bit flips
/// each output bit with probability close to one half.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Hash of the memory shape (the non-row-local fingerprint component).
fn shape_hash(rows: usize, dim: usize) -> u64 {
    let h = folded_multiply(rows as u64 ^ SEED_A, MUL_A);
    avalanche(folded_multiply(h ^ dim as u64, MUL_B))
}

/// Hash of the memory row at position `row` whose content hash
/// ([`simd::row_content_hash`]) is `content`: one full avalanche (a
/// bijection) of the content xored with the position times an odd constant,
/// so equal rows at different positions hash apart without a second pass.
fn row_hash(row: usize, content: u64) -> u64 {
    avalanche(content ^ (row as u64).wrapping_mul(MUL_B))
}

/// Fingerprint of a (keys, values) memory: shape plus every element's bit
/// pattern. Used as the [`MemoryCache`] identity, so a mutated memory (any
/// element changed) produces a different fingerprint and therefore a cache
/// miss. The cache serves a hit on fingerprint equality alone, so every bit of
/// every element reaches every bit of its row's hash.
///
/// The fingerprint is a **commutative sum of per-row hashes** plus a shape
/// hash. A row's hash is a position-free *content hash* of its bits (in AVX2
/// lanes, or a scalar mirror of equal value), finished with the row index by
/// one avalanche; this function reads each row once. The structure makes it
/// *deltable*: [`fingerprint_append`] and [`fingerprint_update`] advance a
/// fingerprint across a streaming mutation in `O(delta * d)` — touching only
/// the changed rows — and produce exactly the value this function computes
/// over the mutated matrices, which is what lets the serving layer turn an
/// append into a cache *update* instead of a miss. A [`ShardedMemory`] keeps
/// its rows' content hashes, so it fingerprints itself and every shard, even
/// after a rebalance, hashing each row once. Fingerprints are in-process
/// cache keys only; nothing persists them. Every pair of matrices has one,
/// zero-width or mismatched ones included.
pub fn memory_fingerprint(keys: &Matrix, values: &Matrix) -> u64 {
    let mut fp = shape_hash(keys.rows(), keys.dim());
    SimdBackend::process().for_each_row_content_hash(keys, values, |row, content| {
        fp = fp.wrapping_add(row_hash(row, content));
    });
    fp
}

/// Advances a [`memory_fingerprint`] across an append of `new_keys` /
/// `new_values` rows to a memory that previously had `old_rows` rows of
/// dimension `dim`. `O(new rows * d)`: only the appended rows are hashed.
/// Returns exactly `memory_fingerprint` of the concatenated matrices.
pub fn fingerprint_append(
    old_fingerprint: u64,
    old_rows: usize,
    dim: usize,
    new_keys: &Matrix,
    new_values: &Matrix,
) -> u64 {
    let mut fp = fingerprint_extend(old_fingerprint, old_rows, dim, new_keys.rows(), &[]);
    SimdBackend::process().for_each_row_content_hash(new_keys, new_values, |i, content| {
        fp = fp.wrapping_add(row_hash(old_rows + i, content));
    });
    fp
}

/// Advances a [`memory_fingerprint`] across an in-place overwrite of row
/// `row` (`old_key`/`old_value` -> `new_key`/`new_value`). `O(d)`. Returns
/// exactly `memory_fingerprint` of the mutated matrices.
pub fn fingerprint_update(
    old_fingerprint: u64,
    row: usize,
    old_key: &[f32],
    old_value: &[f32],
    new_key: &[f32],
    new_value: &[f32],
) -> u64 {
    let [old, new] = [(old_key, old_value), (new_key, new_value)]
        .map(|(key, value)| row_hash(row, simd::row_content_hash(key, value)));
    old_fingerprint.wrapping_sub(old).wrapping_add(new)
}

/// Moves a fingerprint of `old_rows` rows to `old_rows + new_rows` rows and
/// adds the rows whose content hashes are `contents`, from position
/// `old_rows` on, reading no row.
pub(crate) fn fingerprint_extend(
    old_fingerprint: u64,
    old_rows: usize,
    dim: usize,
    new_rows: usize,
    contents: &[u64],
) -> u64 {
    let fp = old_fingerprint
        .wrapping_sub(shape_hash(old_rows, dim))
        .wrapping_add(shape_hash(old_rows + new_rows, dim));
    (old_rows..).zip(contents).fold(fp, |fp, (row, &content)| {
        fp.wrapping_add(row_hash(row, content))
    })
}

/// [`memory_fingerprint`] of the `dim`-wide rows whose content hashes are
/// `contents`.
pub(crate) fn contents_fingerprint(dim: usize, contents: &[u64]) -> u64 {
    fingerprint_extend(shape_hash(0, dim), 0, dim, contents.len(), contents)
}

/// Outcome of one incremental-prepare mutation
/// ([`ComputeBackend::append_rows`] / [`ComputeBackend::update_row`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalPrepareStats {
    /// Element-level operations the mutation performed (ordered insertions,
    /// row re-quantizations, ...). After a full re-prepare this is the full
    /// preprocessing cost; the simulator charges the two cases distinctly.
    pub incremental_ops: u64,
    /// Whether the backend fell back to preparing the mutated memory from
    /// scratch (a mismatched prepared state, a backend without incremental
    /// maintenance, ...) instead of maintaining the prepared state in place.
    pub full_reprepare: bool,
}

impl IncrementalPrepareStats {
    fn incremental(incremental_ops: u64) -> Self {
        Self {
            incremental_ops,
            full_reprepare: false,
        }
    }

    fn rebuilt(incremental_ops: u64) -> Self {
        Self {
            incremental_ops,
            full_reprepare: true,
        }
    }
}

/// Validates an append request against a memory of width `d`: the row
/// counts agree and both widths equal `d`.
pub(crate) fn validate_append(
    d: usize,
    new_keys: &Matrix,
    new_values: &Matrix,
) -> Result<(), AttentionError> {
    if new_keys.rows() != new_values.rows() {
        return Err(AttentionError::RowCountMismatch {
            keys: new_keys.rows(),
            values: new_values.rows(),
        });
    }
    for dim in [new_keys.dim(), new_values.dim()] {
        if dim != d {
            return Err(AttentionError::DimensionMismatch {
                expected: d,
                actual: dim,
            });
        }
    }
    Ok(())
}

/// Validates a row update's key and value against a memory of width `d`.
pub(crate) fn validate_row_width(
    d: usize,
    key: &[f32],
    value: &[f32],
) -> Result<(), AttentionError> {
    for len in [key.len(), value.len()] {
        if len != d {
            return Err(AttentionError::DimensionMismatch {
                expected: d,
                actual: len,
            });
        }
    }
    Ok(())
}

/// Validates a row-update request against a prepared memory's shape.
fn validate_update(
    memory: &PreparedMemory,
    row: usize,
    key: &[f32],
    value: &[f32],
) -> Result<(), AttentionError> {
    if row >= memory.n() {
        return Err(AttentionError::InvalidParameter {
            name: "row",
            constraint: "row index must be within the memory",
        });
    }
    validate_row_width(memory.d(), key, value)
}

/// Append fallback: concatenate and re-run the backend's full prepare.
fn rebuild_append<B: ComputeBackend + ?Sized>(
    backend: &B,
    memory: &mut PreparedMemory,
    new_keys: &Matrix,
    new_values: &Matrix,
) -> Result<IncrementalPrepareStats, AttentionError> {
    let mut keys = memory.keys.clone();
    let mut values = memory.values.clone();
    keys.append_rows(new_keys)?;
    values.append_rows(new_values)?;
    *memory = backend.prepare(&keys, &values)?;
    Ok(IncrementalPrepareStats::rebuilt(memory.preprocess_ops))
}

/// Update fallback: overwrite the row and re-run the backend's full prepare.
fn rebuild_update<B: ComputeBackend + ?Sized>(
    backend: &B,
    memory: &mut PreparedMemory,
    row: usize,
    key: &[f32],
    value: &[f32],
) -> Result<IncrementalPrepareStats, AttentionError> {
    let mut keys = memory.keys.clone();
    let mut values = memory.values.clone();
    keys.set_row(row, key)?;
    values.set_row(row, value)?;
    *memory = backend.prepare(&keys, &values)?;
    Ok(IncrementalPrepareStats::rebuilt(memory.preprocess_ops))
}

/// Append for backends whose prepared state is [`PreparedState::Exact`]
/// (shared by [`ExactBackend`] and [`SimdBackend`]): extending the raw
/// matrices *is* the whole maintenance. Falls back to a full re-prepare on a
/// foreign prepared state.
pub(crate) fn append_rows_exact_state<B: ComputeBackend + ?Sized>(
    backend: &B,
    memory: &mut PreparedMemory,
    new_keys: &Matrix,
    new_values: &Matrix,
) -> Result<IncrementalPrepareStats, AttentionError> {
    validate_append(memory.d(), new_keys, new_values)?;
    if new_keys.is_empty() {
        return Ok(IncrementalPrepareStats::default());
    }
    if !matches!(memory.state, PreparedState::Exact) {
        return rebuild_append(backend, memory, new_keys, new_values);
    }
    memory.keys.append_rows(new_keys)?;
    memory.values.append_rows(new_values)?;
    Ok(IncrementalPrepareStats::incremental(0))
}

/// Row update for backends whose prepared state is [`PreparedState::Exact`]
/// (shared by [`ExactBackend`] and [`SimdBackend`]).
pub(crate) fn update_row_exact_state<B: ComputeBackend + ?Sized>(
    backend: &B,
    memory: &mut PreparedMemory,
    row: usize,
    key: &[f32],
    value: &[f32],
) -> Result<IncrementalPrepareStats, AttentionError> {
    validate_update(memory, row, key, value)?;
    if !matches!(memory.state, PreparedState::Exact) {
        return rebuild_update(backend, memory, row, key, value);
    }
    memory.keys.set_row(row, key)?;
    memory.values.set_row(row, value)?;
    Ok(IncrementalPrepareStats::incremental(0))
}

/// [`ComputeBackend::attend_batch_owned`] for a backend that attends one owned
/// query at a time: drains `queries` through `attend` and appends each result
/// to `results`; on the first error, appends nothing.
fn attend_each_owned(
    queries: &mut Vec<Vec<f32>>,
    results: &mut Vec<AttentionResult>,
    mut attend: impl FnMut(Vec<f32>) -> Result<AttentionResult, AttentionError>,
) -> Result<(), AttentionError> {
    let start = results.len();
    results.reserve(queries.len());
    for query in queries.drain(..) {
        match attend(query) {
            Ok(result) => results.push(result),
            Err(error) => {
                results.truncate(start);
                return Err(error);
            }
        }
    }
    Ok(())
}

/// Data-dependent work counts of one query, reported by backends whose per-query work
/// varies with the data (the approximate pipeline). The cycle-level simulator turns
/// this into latency/throughput cycles; backends with query-independent work (exact,
/// quantized base pipeline) report `None` from [`ComputeBackend::profile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkProfile {
    /// Candidate-selection iterations executed (`M`).
    pub m: usize,
    /// Candidates surviving candidate selection (`C`).
    pub candidates: usize,
    /// Entries surviving post-scoring selection (`K`).
    pub selected: usize,
    /// Number of memory rows (`n`).
    pub n: usize,
}

/// A datapath that can serve attention operations, split into a per-memory
/// preprocessing phase and a per-query compute phase.
///
/// The trait is object-safe (`&dyn ComputeBackend`) and `Send`, so a server can be
/// moved to the thread that drives it. Every call runs on its caller's thread.
///
/// # Contract
///
/// For every backend, [`ComputeBackend::attend_prepared`] against a memory produced by
/// [`ComputeBackend::prepare`] must be **bit-identical** to the one-shot
/// [`ComputeBackend::attend`], and [`ComputeBackend::attend_batch_prepared`] and
/// [`ComputeBackend::attend_batch_owned`] must be bit-identical to calling
/// `attend_prepared` once per query, in query order.
pub trait ComputeBackend: Send {
    /// Short human-readable name used in reports and as part of the cache key (e.g.
    /// `"exact"`, `"approx(M=0.5n,T=5%)"`). Backends with different configurations
    /// must report different names.
    fn name(&self) -> String;

    /// Runs the backend's preprocessing over a key/value memory (the paper's
    /// "comprehension time" work, off the query critical path).
    ///
    /// # Errors
    ///
    /// Returns an error if the key/value shapes are inconsistent or the memory is
    /// empty.
    fn prepare(&self, keys: &Matrix, values: &Matrix) -> Result<PreparedMemory, AttentionError>;

    /// Appends rows to a prepared memory, maintaining the backend's prepared
    /// state **incrementally** where the backend supports it (amortized
    /// `O(delta * d)`-ish work instead of the `O(n * d)` full re-prepare).
    /// The mutated memory is always exactly equivalent to
    /// `self.prepare(grown keys, grown values)` — bit-identical prepared
    /// state for the exact/SIMD/quantized backends, attend-result-equivalent
    /// sorted state for the approximate backend — the returned stats only say
    /// how much work it took to get there. An empty `new_keys` is a no-op.
    ///
    /// The default implementation rebuilds from scratch (correct for any
    /// backend); the built-in backends override it with true incremental
    /// maintenance and fall back to the rebuild only on a foreign
    /// [`PreparedState`].
    ///
    /// # Errors
    ///
    /// Returns an error if the new rows disagree with the memory's dimension,
    /// if `new_keys` and `new_values` disagree on the row count, or if a
    /// fallback re-prepare fails.
    fn append_rows(
        &self,
        memory: &mut PreparedMemory,
        new_keys: &Matrix,
        new_values: &Matrix,
    ) -> Result<IncrementalPrepareStats, AttentionError> {
        validate_append(memory.d(), new_keys, new_values)?;
        if new_keys.is_empty() {
            return Ok(IncrementalPrepareStats::default());
        }
        rebuild_append(self, memory, new_keys, new_values)
    }

    /// Overwrites one row of a prepared memory in place, maintaining the
    /// backend's prepared state incrementally where the backend supports it
    /// (same contract as [`ComputeBackend::append_rows`], with `O(d log n)`
    /// -ish incremental work).
    ///
    /// # Errors
    ///
    /// Returns an error if `row` is out of bounds, if `key`/`value` do not
    /// have the memory's dimension, or if a fallback re-prepare fails.
    fn update_row(
        &self,
        memory: &mut PreparedMemory,
        row: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<IncrementalPrepareStats, AttentionError> {
        validate_update(memory, row, key, value)?;
        rebuild_update(self, memory, row, key, value)
    }

    /// Computes attention of `query` over a prepared memory.
    ///
    /// # Errors
    ///
    /// Returns an error if the query dimension does not match the memory, or if the
    /// memory was prepared by an incompatible backend.
    fn attend_prepared(
        &self,
        memory: &PreparedMemory,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError>;

    /// Computes attention for every query row against one prepared memory, one
    /// query after another on the caller's thread. Results are in query order and
    /// bit-identical to a loop over [`ComputeBackend::attend_prepared`]; an empty
    /// batch returns an empty vector.
    ///
    /// # Errors
    ///
    /// Returns the first (in query order) error if any query is inconsistent with the
    /// memory.
    fn attend_batch_prepared(
        &self,
        memory: &PreparedMemory,
        queries: &[&[f32]],
    ) -> Result<Vec<AttentionResult>, AttentionError> {
        queries
            .iter()
            .map(|q| self.attend_prepared(memory, q))
            .collect()
    }

    /// [`ComputeBackend::attend_batch_prepared`] for queries the caller hands
    /// over: drains `queries` and appends one result per query to `results`, in
    /// query order, bit-identical to `attend_batch_prepared`. A result's
    /// `output` may reuse its query's buffer, which is how the built-in exact,
    /// SIMD and quantized backends answer a query without allocating its
    /// output. The serving layer runs every whole-session batch through this
    /// method.
    ///
    /// The default borrows the queries and forwards to
    /// `attend_batch_prepared`, one call per batch, so a backend that
    /// overrides only that method is served unchanged.
    ///
    /// # Errors
    ///
    /// Returns `attend_batch_prepared`'s first (in query order) error, and
    /// then appends nothing. `queries` is left empty either way.
    fn attend_batch_owned(
        &self,
        memory: &PreparedMemory,
        queries: &mut Vec<Vec<f32>>,
        results: &mut Vec<AttentionResult>,
    ) -> Result<(), AttentionError> {
        let batch = {
            let borrowed: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
            self.attend_batch_prepared(memory, &borrowed)
        };
        queries.clear();
        results.extend(batch?);
        Ok(())
    }

    /// Computes attention of `query` over a row-sharded memory: every shard produces
    /// a partial result (on hardware, one shard per unit) and a cross-shard merge
    /// combines them.
    ///
    /// The default implementation performs the numerically stable log-sum-exp merge of
    /// per-shard partial softmax outputs ([`merge_partial_softmax`]), which is correct
    /// for datapaths that attend every row. Backends with data-dependent row selection
    /// override it (the approximate backend unions per-shard candidate sets before
    /// global post-scoring). The quantized backend overrides it for speed only: its
    /// fused query is bit-identical to this default (see
    /// [`QuantizedBackend`]'s `attend_sharded`). With a single shard this delegates
    /// to [`ComputeBackend::attend_prepared`] and is **bit-identical** to the
    /// unsharded path.
    ///
    /// # Errors
    ///
    /// Returns an error if the query dimension does not match the memory, or if any
    /// shard was prepared by an incompatible backend.
    fn attend_sharded(
        &self,
        memory: &ShardedMemory,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        memory.validate_query(query)?;
        if let (true, Some(only)) = (memory.is_single(), memory.shards().first()) {
            return self.attend_prepared(only.memory(), query);
        }
        shard::attend_sharded_dense(self, memory, query)
    }

    /// Computes sharded attention for every query, one query after another on the
    /// caller's thread. Results are in query order and bit-identical to a loop over
    /// [`ComputeBackend::attend_sharded`]; an empty batch returns an empty vector.
    ///
    /// # Errors
    ///
    /// Returns the first (in query order) error if any query is inconsistent with the
    /// memory.
    fn attend_batch_sharded(
        &self,
        memory: &ShardedMemory,
        queries: &[&[f32]],
    ) -> Result<Vec<AttentionResult>, AttentionError> {
        queries
            .iter()
            .map(|q| self.attend_sharded(memory, q))
            .collect()
    }

    /// Reports the data-dependent work one query performs, or `None` when the
    /// backend's per-query work is query-independent (every row is processed).
    ///
    /// # Errors
    ///
    /// Returns an error if the query is inconsistent with the memory.
    fn profile(
        &self,
        memory: &PreparedMemory,
        query: &[f32],
    ) -> Result<Option<WorkProfile>, AttentionError> {
        memory.validate_query(query)?;
        Ok(None)
    }

    /// One-shot convenience: prepare the memory and attend a single query.
    ///
    /// # Errors
    ///
    /// Returns an error if the key/value/query shapes are inconsistent.
    fn attend(
        &self,
        keys: &Matrix,
        values: &Matrix,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        let memory = self.prepare(keys, values)?;
        self.attend_prepared(&memory, query)
    }

    /// One-shot convenience: prepare the memory once and attend every row of
    /// `queries` (the self-attention pattern). Zero-copy: query rows are borrowed
    /// straight out of the matrix.
    ///
    /// # Errors
    ///
    /// Returns an error if the memory is empty, even when `queries` is, and
    /// otherwise the first (in query order) error if any shape is inconsistent.
    fn attend_batch(
        &self,
        keys: &Matrix,
        values: &Matrix,
        queries: &Matrix,
    ) -> Result<Vec<AttentionResult>, AttentionError> {
        let memory = self.prepare(keys, values)?;
        let rows: Vec<&[f32]> = queries.iter_rows().collect();
        self.attend_batch_prepared(&memory, &rows)
    }
}

/// The exact floating-point datapath (Figure 1 / Figure 5). Preprocessing is a no-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactBackend;

impl ComputeBackend for ExactBackend {
    fn name(&self) -> String {
        "exact".to_owned()
    }

    fn prepare(&self, keys: &Matrix, values: &Matrix) -> Result<PreparedMemory, AttentionError> {
        PreparedMemory::new(keys, values, 0, PreparedState::Exact)
    }

    fn append_rows(
        &self,
        memory: &mut PreparedMemory,
        new_keys: &Matrix,
        new_values: &Matrix,
    ) -> Result<IncrementalPrepareStats, AttentionError> {
        append_rows_exact_state(self, memory, new_keys, new_values)
    }

    fn update_row(
        &self,
        memory: &mut PreparedMemory,
        row: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<IncrementalPrepareStats, AttentionError> {
        update_row_exact_state(self, memory, row, key, value)
    }

    fn attend_prepared(
        &self,
        memory: &PreparedMemory,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        // Exact attention only needs the raw matrices, which every prepared memory
        // carries, so it can serve memories prepared by any backend.
        attention_with_scores(memory.keys(), memory.values(), query)
    }

    fn attend_batch_owned(
        &self,
        memory: &PreparedMemory,
        queries: &mut Vec<Vec<f32>>,
        results: &mut Vec<AttentionResult>,
    ) -> Result<(), AttentionError> {
        attend_each_owned(queries, results, |query| {
            attend_exact(memory.keys(), memory.values(), query)
        })
    }

    fn attend(
        &self,
        keys: &Matrix,
        values: &Matrix,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        // Preparation is a no-op, so the one-shot path skips building (and cloning
        // the matrices into) a PreparedMemory.
        attention_with_scores(keys, values, query)
    }
}

/// The A3 approximate datapath: greedy candidate selection over the per-column sorted
/// key matrix, then post-scoring selection, then softmax and the weighted sum over the
/// rows that survive (paper Section IV).
///
/// ```
/// use a3_core::backend::{ApproximateBackend, ComputeBackend};
/// use a3_core::Matrix;
///
/// let keys = Matrix::from_rows(vec![vec![1.0, 0.0], vec![-1.0, 0.5], vec![0.9, 0.1]]).unwrap();
/// let values = keys.clone();
/// let backend = ApproximateBackend::conservative();
/// let memory = backend.prepare(&keys, &values).unwrap();
/// let out = backend.attend_detailed(&memory, &[1.0, 0.0]).unwrap();
/// assert!(out.work.candidates >= 1);
/// assert_eq!(out.result.output.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ApproximateBackend {
    config: ApproxConfig,
}

impl ApproximateBackend {
    /// Creates an approximate backend with the given configuration.
    pub fn new(config: ApproxConfig) -> Self {
        Self { config }
    }

    /// The paper's conservative configuration (`M = n/2`, `T = 5%`).
    pub fn conservative() -> Self {
        Self::new(ApproxConfig::conservative())
    }

    /// The paper's aggressive configuration (`M = n/8`, `T = 10%`).
    pub fn aggressive() -> Self {
        Self::new(ApproxConfig::aggressive())
    }

    /// The configuration in use.
    pub fn config(&self) -> &ApproxConfig {
        &self.config
    }

    /// Attends `query` over a prepared memory and reports, beside the result, the
    /// rows candidate selection and post-scoring kept and the work counts the
    /// cycle-level simulator prices. [`ComputeBackend::attend_prepared`] returns this
    /// output's `result`, and [`ComputeBackend::profile`] its `work`.
    ///
    /// # Errors
    ///
    /// Returns an error if the memory was not prepared by an approximate backend, if
    /// its sorted key columns do not match its shape, or if the query dimension does
    /// not match the memory.
    pub fn attend_detailed(
        &self,
        memory: &PreparedMemory,
        query: &[f32],
    ) -> Result<ApproxAttentionOutput, AttentionError> {
        let sorted = sorted_columns(memory)?;
        memory.validate_query(query)?;
        self.attend_sorted(sorted, memory.keys(), memory.values(), query)
    }

    /// The whole pipeline over one memory whose per-column sort is `sorted`.
    fn attend_sorted(
        &self,
        sorted: &SortedKeyColumns,
        keys: &Matrix,
        values: &Matrix,
        query: &[f32],
    ) -> Result<ApproxAttentionOutput, AttentionError> {
        let n = keys.rows();
        let (candidates, m) = select_stage(&self.config, sorted, query);
        let (result, selected) =
            attend_candidates(&self.config, n, keys.dim(), &candidates, query, |r| {
                (r < n).then_some((keys, values, r))
            })?;
        let work = WorkProfile {
            m,
            candidates: candidates.len(),
            selected: selected.len(),
            n,
        };
        Ok(ApproxAttentionOutput {
            result,
            candidates,
            selected,
            work,
        })
    }
}

/// The sorted key columns of a memory prepared by an approximate backend, provided
/// they cover the memory's shape.
fn sorted_columns(memory: &PreparedMemory) -> Result<&SortedKeyColumns, AttentionError> {
    let sorted = memory.sorted().ok_or(AttentionError::BackendMismatch {
        expected: "sorted",
        actual: memory.state().label(),
    })?;
    if sorted.rows() != memory.n() || sorted.dim() != memory.d() {
        return Err(AttentionError::InvalidParameter {
            name: "sorted",
            constraint: "preprocessed key columns must match the key matrix shape",
        });
    }
    Ok(sorted)
}

/// Stage 1 of the approximate pipeline over one memory's sorted columns: the
/// ascending rows greedy candidate selection keeps and the iterations `M` it ran, or
/// every row and `M = 0` when candidate selection is off. An empty greedy selection
/// falls back to the best greedy row, so the pipeline always has a row to attend.
fn select_stage(
    config: &ApproxConfig,
    sorted: &SortedKeyColumns,
    query: &[f32],
) -> (Vec<usize>, usize) {
    match config.resolve_m(sorted.rows()) {
        Some(m) => {
            let selection = select_candidates(sorted, query, m);
            if selection.candidates.is_empty() {
                (vec![selection.best_row], m)
            } else {
                (selection.candidates, m)
            }
        }
        None => ((0..sorted.rows()).collect(), 0),
    }
}

/// Stages 2–4 of the approximate pipeline (Section IV, Figure 10), for the whole
/// memory and the sharded union alike: the full dot products of the ascending
/// `candidates`, post-scoring selection, then softmax and the weighted sum over the
/// rows that survive. Each survivor's softmax reuses its stage-2 score, and rows of
/// weight zero add nothing to the output.
///
/// `row` maps a logical row to the key matrix, value matrix and local row holding
/// it: the identity on a whole memory, [`ShardedMemory::locate`] on a sharded one.
/// Returns the result over all `n` logical rows of width `d` (score and weight zero
/// where a row was dropped) and the surviving rows, ascending.
fn attend_candidates<'m>(
    config: &ApproxConfig,
    n: usize,
    d: usize,
    candidates: &[usize],
    query: &[f32],
    row: impl Fn(usize) -> Option<(&'m Matrix, &'m Matrix, usize)>,
) -> Result<(AttentionResult, Vec<usize>), AttentionError> {
    let outside = || AttentionError::InvalidParameter {
        name: "candidates",
        constraint: "candidate rows must be ascending and lie within the memory",
    };

    // Stage 2: full dot products for the candidates only.
    let candidate_scores: Vec<f32> = candidates
        .iter()
        .map(|&r| row(r).map(|(keys, _, local)| keys.row_dot(local, query)))
        .collect::<Option<_>>()
        .ok_or_else(outside)?;

    // Stage 3: post-scoring selection.
    let selected: Vec<usize> = match post_scoring_threshold(config)? {
        Some(t) => post_scoring_select(candidates, &candidate_scores, t),
        None => candidates.to_vec(),
    };

    // Stage 4: softmax + weighted sum over the surviving rows. `selected` is an
    // ascending subset of the ascending `candidates`, so one forward cursor reads
    // each survivor's stage-2 score back.
    let mut pairs = candidates.iter().zip(&candidate_scores);
    let selected_scores: Vec<f32> = selected
        .iter()
        .map(|&r| pairs.by_ref().find(|&(&c, _)| c == r).map(|(_, &s)| s))
        .collect::<Option<_>>()
        .ok_or_else(outside)?;
    let selected_weights = stable_softmax(&selected_scores);
    let mut scores = vec![0.0f32; n];
    let mut weights = vec![0.0f32; n];
    let mut output = vec![0.0f32; d];
    for (&r, (&s, &w)) in selected
        .iter()
        .zip(selected_scores.iter().zip(&selected_weights))
    {
        if let (Some(score), Some(weight)) = (scores.get_mut(r), weights.get_mut(r)) {
            *score = s;
            *weight = w;
        }
        if w == 0.0 {
            continue;
        }
        let (_, values, local) = row(r).ok_or_else(outside)?;
        for (o, v) in output.iter_mut().zip(values.row(local)) {
            *o += w * v;
        }
    }
    let result = AttentionResult {
        scores,
        weights,
        output,
    };
    Ok((result, selected))
}

/// The post-scoring threshold `T` of `config` in percent, or `None` when
/// post-scoring is off. A `T` outside (0, 100], NaN included, is a typed error
/// here, before [`post_scoring_select`] would panic on it.
fn post_scoring_threshold(config: &ApproxConfig) -> Result<Option<f64>, AttentionError> {
    match config.threshold() {
        Some(t) if !(t > 0.0 && t <= 100.0) => Err(AttentionError::InvalidParameter {
            name: "threshold",
            constraint: "the post-scoring threshold T must lie in (0, 100] percent",
        }),
        t => Ok(t),
    }
}

impl ComputeBackend for ApproximateBackend {
    fn name(&self) -> String {
        let m = match self.config().m {
            crate::approx::MSpec::Disabled => "off".to_owned(),
            crate::approx::MSpec::Absolute(m) => format!("{m}"),
            crate::approx::MSpec::FractionOfN(f) => format!("{f}n"),
        };
        let t = match self.config().threshold() {
            Some(t) => format!("{t}%"),
            None => "off".to_owned(),
        };
        format!("approx(M={m},T={t})")
    }

    fn prepare(&self, keys: &Matrix, values: &Matrix) -> Result<PreparedMemory, AttentionError> {
        validate_memory(keys, values)?;
        post_scoring_threshold(&self.config)?;
        let sorted = SortedKeyColumns::preprocess(keys);
        let ops = sorted.preprocess_comparisons();
        PreparedMemory::new(keys, values, ops, PreparedState::Sorted(sorted))
    }

    fn append_rows(
        &self,
        memory: &mut PreparedMemory,
        new_keys: &Matrix,
        new_values: &Matrix,
    ) -> Result<IncrementalPrepareStats, AttentionError> {
        validate_append(memory.d(), new_keys, new_values)?;
        if new_keys.is_empty() {
            return Ok(IncrementalPrepareStats::default());
        }
        let PreparedState::Sorted(sorted) = &mut memory.state else {
            return rebuild_append(self, memory, new_keys, new_values);
        };
        // Merge the new rows into every sorted column (bit-identical to a
        // fresh preprocess of the grown matrix), then keep the analytic
        // preprocessing-cost model — which is a function of (n, d) only —
        // consistent with the grown shape.
        let ops = crate::approx::incremental::append_rows_sorted(sorted, new_keys);
        let comparisons = sorted.preprocess_comparisons();
        memory.keys.append_rows(new_keys)?;
        memory.values.append_rows(new_values)?;
        memory.preprocess_ops = comparisons;
        Ok(IncrementalPrepareStats::incremental(ops))
    }

    fn update_row(
        &self,
        memory: &mut PreparedMemory,
        row: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<IncrementalPrepareStats, AttentionError> {
        validate_update(memory, row, key, value)?;
        let old_key = memory.keys.row(row).to_vec();
        let PreparedState::Sorted(sorted) = &mut memory.state else {
            return rebuild_update(self, memory, row, key, value);
        };
        let Some(ops) = crate::approx::incremental::update_row_sorted(sorted, row, &old_key, key)
        else {
            return rebuild_update(self, memory, row, key, value);
        };
        memory.keys.set_row(row, key)?;
        memory.values.set_row(row, value)?;
        Ok(IncrementalPrepareStats::incremental(ops))
    }

    fn attend_prepared(
        &self,
        memory: &PreparedMemory,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        Ok(self.attend_detailed(memory, query)?.result)
    }

    fn attend_sharded(
        &self,
        memory: &ShardedMemory,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        memory.validate_query(query)?;
        if let (true, Some(only)) = (memory.is_single(), memory.shards().first()) {
            return self.attend_prepared(only.memory(), query);
        }
        // Candidate selection runs per shard; the merge unions the candidate sets
        // before global post-scoring (kNN-style per-partition top-k + merge), instead
        // of the dense log-sum-exp merge.
        shard::attend_sharded_union(self, memory, query)
    }

    fn profile(
        &self,
        memory: &PreparedMemory,
        query: &[f32],
    ) -> Result<Option<WorkProfile>, AttentionError> {
        Ok(Some(self.attend_detailed(memory, query)?.work))
    }

    fn attend(
        &self,
        keys: &Matrix,
        values: &Matrix,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        // One-shot: sort on the fly without cloning the matrices into a
        // PreparedMemory (bit-identical to the prepared path).
        keys.validate_attention(values, query)?;
        let sorted = SortedKeyColumns::preprocess(keys);
        Ok(self.attend_sorted(&sorted, keys, values, query)?.result)
    }
}

/// The fixed-point/LUT base-pipeline datapath (paper Sections III-A/III-B), served as
/// a first-class backend: preparation quantizes the key and value matrices once and
/// derives the per-stage formats, so per-query work is pure fixed-point arithmetic —
/// exactly the split the hardware realises with its on-chip quantized SRAM copies.
/// The exponent lookup tables belong to the exponent module, as in the hardware:
/// each format's tables are built once per process and shared by every memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizedBackend {
    input_format: QFormat,
    /// Prepare memories on the scalar datapath even when the AVX2 vector
    /// kernels (`backend::quantized_simd`) are available.
    force_scalar: bool,
}

impl QuantizedBackend {
    /// Creates a quantized backend with the given input format. On AVX2
    /// hosts, memories whose format plan passes
    /// [`PipelineFormats::lanes_eligible`](a3_fixed::PipelineFormats::lanes_eligible)
    /// take the vectorised integer datapath automatically (bit-identical to
    /// the scalar one).
    pub fn new(input_format: QFormat) -> Self {
        Self {
            input_format,
            force_scalar: false,
        }
    }

    /// The paper's `Q4.4` input quantization.
    pub fn paper() -> Self {
        Self::new(a3_fixed::paper_input_format())
    }

    /// Creates a quantized backend pinned to the scalar datapath even when
    /// the AVX2 vector kernels are available. Bit-identical to
    /// [`QuantizedBackend::new`]; exists so differential tests and benchmarks
    /// can measure both datapaths side by side.
    pub fn scalar(input_format: QFormat) -> Self {
        Self {
            input_format,
            force_scalar: true,
        }
    }

    /// The paper's `Q4.4` input quantization, pinned to the scalar datapath.
    pub fn paper_scalar() -> Self {
        Self::scalar(a3_fixed::paper_input_format())
    }

    /// The input quantization format.
    pub fn input_format(&self) -> QFormat {
        self.input_format
    }

    /// Quantizes a memory on this backend's datapath (scalar-pinned or not).
    fn quantize(&self, keys: &Matrix, values: &Matrix) -> Result<QuantizedMemory, AttentionError> {
        if self.force_scalar {
            QuantizedMemory::prepare_scalar(self.input_format, keys, values)
        } else {
            QuantizedMemory::prepare(self.input_format, keys, values)
        }
    }

    /// The quantized state of `memory`, provided it was quantized in this
    /// backend's input format.
    fn quantized<'m>(
        &self,
        memory: &'m PreparedMemory,
    ) -> Result<&'m QuantizedMemory, AttentionError> {
        let quantized = memory.quantized().ok_or(AttentionError::BackendMismatch {
            expected: "quantized",
            actual: memory.state().label(),
        })?;
        if quantized.input_format() != self.input_format {
            return Err(AttentionError::InvalidParameter {
                name: "memory",
                constraint: "memory was prepared with a different input format",
            });
        }
        Ok(quantized)
    }

    /// Whether `memory`'s prepared state is one this backend configuration
    /// would itself have produced, making in-place incremental maintenance
    /// valid. A different input format — or a vectorised pipeline under a
    /// scalar-pinned backend — must go through a full re-prepare instead.
    fn owns_prepared_state(&self, memory: &PreparedMemory) -> bool {
        match &memory.state {
            PreparedState::Quantized(q) => {
                q.input_format() == self.input_format && !(self.force_scalar && q.is_vectorized())
            }
            _ => false,
        }
    }
}

impl ComputeBackend for QuantizedBackend {
    fn name(&self) -> String {
        // The two names keep vector- and scalar-prepared memories apart in a
        // `MemoryCache` (which keys on the backend name).
        if self.force_scalar {
            format!("quantized-scalar({})", self.input_format)
        } else {
            format!("quantized({})", self.input_format)
        }
    }

    fn prepare(&self, keys: &Matrix, values: &Matrix) -> Result<PreparedMemory, AttentionError> {
        let quantized = self.quantize(keys, values)?;
        let ops = quantized.preprocess_ops();
        PreparedMemory::new(
            keys,
            values,
            ops,
            PreparedState::Quantized(Box::new(quantized)),
        )
    }

    /// Quantizes only the appended rows, at every row count. When `n`
    /// crosses a power of two, [`QuantizedMemory::append_rows`] re-checks the
    /// vector datapath's gates for the grown plan, or converts the memory to
    /// the scalar datapath when the plan leaves them, and the scalar datapath
    /// re-derives its clamp bounds; nothing is re-prepared. Only a memory
    /// this backend would not have prepared (another input format, or a
    /// vector pipeline under a scalar-pinned backend) is rebuilt.
    fn append_rows(
        &self,
        memory: &mut PreparedMemory,
        new_keys: &Matrix,
        new_values: &Matrix,
    ) -> Result<IncrementalPrepareStats, AttentionError> {
        validate_append(memory.d(), new_keys, new_values)?;
        if new_keys.is_empty() {
            return Ok(IncrementalPrepareStats::default());
        }
        if !self.owns_prepared_state(memory) {
            return rebuild_append(self, memory, new_keys, new_values);
        }
        let PreparedState::Quantized(q) = &mut memory.state else {
            return rebuild_append(self, memory, new_keys, new_values);
        };
        // Row-local re-quantization: only the delta rows are quantized, at
        // every row count (`QuantizedMemory::append_rows` re-checks the
        // gates, or converts to the scalar datapath, when `n` crosses a power
        // of two).
        let ops = q.append_rows(new_keys, new_values)?;
        let preprocess = q.preprocess_ops();
        memory.keys.append_rows(new_keys)?;
        memory.values.append_rows(new_values)?;
        memory.preprocess_ops = preprocess;
        Ok(IncrementalPrepareStats::incremental(ops))
    }

    fn update_row(
        &self,
        memory: &mut PreparedMemory,
        row: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<IncrementalPrepareStats, AttentionError> {
        validate_update(memory, row, key, value)?;
        if !self.owns_prepared_state(memory) {
            return rebuild_update(self, memory, row, key, value);
        }
        let PreparedState::Quantized(q) = &mut memory.state else {
            return rebuild_update(self, memory, row, key, value);
        };
        match q.update_row(row, key, value)? {
            Some(ops) => {
                memory.keys.set_row(row, key)?;
                memory.values.set_row(row, value)?;
                Ok(IncrementalPrepareStats::incremental(ops))
            }
            None => rebuild_update(self, memory, row, key, value),
        }
    }

    fn attend_prepared(
        &self,
        memory: &PreparedMemory,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        memory.validate_query(query)?;
        self.quantized(memory)?.attend(query)
    }

    fn attend_batch_owned(
        &self,
        memory: &PreparedMemory,
        queries: &mut Vec<Vec<f32>>,
        results: &mut Vec<AttentionResult>,
    ) -> Result<(), AttentionError> {
        attend_each_owned(queries, results, |query| {
            memory.validate_query(&query)?;
            self.quantized(memory)?.attend_with(query)
        })
    }

    /// The default per-shard path, fused when every shard carries the AVX2
    /// pipeline in this backend's input format: the query is quantized once,
    /// one work buffer serves every shard, and each shard's partial result
    /// lands straight in the merged buffers (`quantized_simd` module docs).
    /// Bit-identical to the default, which every other case takes.
    fn attend_sharded(
        &self,
        memory: &ShardedMemory,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        memory.validate_query(query)?;
        if let (true, Some(only)) = (memory.is_single(), memory.shards().first()) {
            return self.attend_prepared(only.memory(), query);
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(result) = quantized_simd::attend_sharded(memory, self.input_format, query) {
            return Ok(result);
        }
        shard::attend_sharded_dense(self, memory, query)
    }

    fn attend(
        &self,
        keys: &Matrix,
        values: &Matrix,
        query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        // One-shot: quantize on the fly without cloning the float matrices into a
        // PreparedMemory (bit-identical to the prepared path).
        keys.validate_attention(values, query)?;
        self.quantize(keys, values)?.attend(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(n: usize, d: usize) -> (Matrix, Matrix, Vec<f32>) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| (((i * 13 + j * 7) % 29) as f32 - 14.0) / 14.0)
                    .collect()
            })
            .collect();
        let keys = Matrix::from_rows(rows.clone()).unwrap();
        let values = Matrix::from_rows(rows).unwrap();
        let query: Vec<f32> = (0..d).map(|j| ((j % 5) as f32 - 2.0) / 2.0).collect();
        (keys, values, query)
    }

    fn backends() -> Vec<Box<dyn ComputeBackend>> {
        vec![
            Box::new(ExactBackend),
            Box::new(SimdBackend::new()),
            Box::new(SimdBackend::scalar()),
            Box::new(ApproximateBackend::conservative()),
            Box::new(ApproximateBackend::aggressive()),
            Box::new(QuantizedBackend::paper()),
            Box::new(QuantizedBackend::paper_scalar()),
        ]
    }

    #[test]
    fn prepared_equals_one_shot_for_every_backend() {
        let (keys, values, query) = case(24, 8);
        for backend in backends() {
            let memory = backend.prepare(&keys, &values).unwrap();
            let prepared = backend.attend_prepared(&memory, &query).unwrap();
            let one_shot = backend.attend(&keys, &values, &query).unwrap();
            assert_eq!(prepared, one_shot, "{}", backend.name());
        }
    }

    #[test]
    fn batch_prepared_is_bit_identical_and_ordered() {
        let (keys, values, query) = case(20, 6);
        let q2: Vec<f32> = query.iter().map(|x| -x).collect();
        let queries = [query.as_slice(), q2.as_slice()];
        for backend in backends() {
            let memory = backend.prepare(&keys, &values).unwrap();
            let batch = backend.attend_batch_prepared(&memory, &queries).unwrap();
            assert_eq!(batch.len(), 2);
            for (q, out) in queries.iter().zip(&batch) {
                assert_eq!(out, &backend.attend_prepared(&memory, q).unwrap());
            }
            assert!(backend
                .attend_batch_prepared(&memory, &[])
                .unwrap()
                .is_empty());
            let short = [0.0f32; 3];
            assert!(matches!(
                backend.attend_batch_prepared(&memory, &[queries[0], &short]),
                Err(AttentionError::DimensionMismatch { .. })
            ));
        }
    }

    #[test]
    fn owned_batches_are_bit_identical_to_borrowed_ones() {
        let (keys, values, query) = case(20, 6);
        let q2: Vec<f32> = query.iter().map(|x| -x).collect();
        let borrowed = [query.as_slice(), q2.as_slice()];
        for backend in backends() {
            let name = backend.name();
            let memory = backend.prepare(&keys, &values).unwrap();
            let want = backend.attend_batch_prepared(&memory, &borrowed).unwrap();
            let mut queries = vec![query.clone(), q2.clone()];
            let mut results = vec![want[1].clone()];
            backend
                .attend_batch_owned(&memory, &mut queries, &mut results)
                .unwrap();
            assert!(queries.is_empty(), "{name}");
            assert_eq!(results.len(), 3, "{name}: results are appended");
            assert_eq!(results[1..], want[..], "{name}");

            // The same first error, nothing appended, and the queries drained.
            let mut queries = vec![query.clone(), vec![0.0; 3], vec![0.0; 2]];
            let mut results = Vec::new();
            assert_eq!(
                backend.attend_batch_owned(&memory, &mut queries, &mut results),
                Err(AttentionError::DimensionMismatch {
                    expected: 6,
                    actual: 3
                }),
                "{name}"
            );
            assert!(queries.is_empty() && results.is_empty(), "{name}");
        }
    }

    #[test]
    fn owned_exact_simd_and_quantized_outputs_take_over_their_query_buffers() {
        let (keys, values, query) = case(20, 6);
        let owners: [Box<dyn ComputeBackend>; 5] = [
            Box::new(ExactBackend),
            Box::new(SimdBackend::new()),
            Box::new(SimdBackend::scalar()),
            Box::new(QuantizedBackend::paper()),
            Box::new(QuantizedBackend::paper_scalar()),
        ];
        for backend in owners {
            let memory = backend.prepare(&keys, &values).unwrap();
            let mut queries = vec![query.clone()];
            let buffer = queries[0].as_ptr();
            let mut results = Vec::new();
            backend
                .attend_batch_owned(&memory, &mut queries, &mut results)
                .unwrap();
            assert_eq!(results[0].output.as_ptr(), buffer, "{}", backend.name());
        }
    }

    #[test]
    fn a_zero_width_memory_is_a_typed_error_and_still_fingerprints() {
        let zero_width = Matrix::from_flat(vec![], 2, 0).unwrap();
        let is_width_error = |result: Result<_, AttentionError>| {
            matches!(
                result,
                Err(AttentionError::InvalidParameter { name: "keys", .. })
            )
        };
        for backend in backends() {
            assert!(
                is_width_error(backend.prepare(&zero_width, &zero_width).map(|_| ())),
                "{}",
                backend.name()
            );
        }
        let mut cache = MemoryCache::new(4);
        assert!(is_width_error(
            cache
                .get_or_prepare(&ExactBackend, &zero_width, &zero_width)
                .map(|_| ())
        ));
        assert!(cache.is_empty());
        assert!(is_width_error(
            ShardedMemory::prepare(
                &ExactBackend,
                ShardPlan::new(2).unwrap(),
                &zero_width,
                &zero_width
            )
            .map(|_| ())
        ));
        // The fingerprint is total: zero-width and mismatched matrices hash.
        let three_rows = Matrix::from_flat(vec![], 3, 0).unwrap();
        let (keys, values, _) = case(2, 4);
        assert_ne!(
            memory_fingerprint(&zero_width, &zero_width),
            memory_fingerprint(&three_rows, &three_rows)
        );
        assert_ne!(
            memory_fingerprint(&keys, &zero_width),
            memory_fingerprint(&keys, &values)
        );
    }

    #[test]
    fn one_shot_batch_equals_per_query_attend() {
        let (keys, values, query) = case(16, 8);
        let flipped: Vec<f32> = query.iter().map(|x| -x).collect();
        let queries = Matrix::from_rows(vec![query, flipped]).unwrap();
        for backend in backends() {
            let batch = backend.attend_batch(&keys, &values, &queries).unwrap();
            assert_eq!(batch.len(), 2, "{}", backend.name());
            for (q, out) in queries.iter_rows().zip(&batch) {
                let single = backend.attend(&keys, &values, q).unwrap();
                assert_eq!(out, &single, "{}", backend.name());
            }
        }
    }

    #[test]
    fn an_out_of_range_post_scoring_threshold_is_a_typed_error() {
        fn is_threshold_error<T>(result: Result<T, AttentionError>) -> bool {
            matches!(
                result,
                Err(AttentionError::InvalidParameter {
                    name: "threshold",
                    ..
                })
            )
        }
        let (keys, values, query) = case(24, 8);
        let valid = ApproximateBackend::conservative();
        let memory = valid.prepare(&keys, &values).unwrap();
        let sharded =
            ShardedMemory::prepare(&valid, ShardPlan::new(2).unwrap(), &keys, &values).unwrap();
        for t in [0.0, -5.0, 100.5, f64::NAN, f64::INFINITY] {
            let backend = ApproximateBackend::new(ApproxConfig::post_scoring_only(t));
            assert!(
                is_threshold_error(backend.prepare(&keys, &values)),
                "T = {t}"
            );
            assert!(
                is_threshold_error(backend.attend(&keys, &values, &query)),
                "T = {t}"
            );
            assert!(
                is_threshold_error(backend.attend_prepared(&memory, &query)),
                "T = {t}"
            );
            assert!(
                is_threshold_error(backend.attend_sharded(&sharded, &query)),
                "T = {t}"
            );
        }
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(ExactBackend.name(), "exact");
        let simd = SimdBackend::new();
        assert_eq!(simd.name(), format!("simd({})", simd.level()));
        assert!(ApproximateBackend::aggressive().name().contains("0.125n"));
        assert!(QuantizedBackend::paper().name().contains("Q4.4"));
    }

    #[test]
    fn fingerprint_changes_when_memory_mutates() {
        let (keys, values, _) = case(8, 4);
        let base = memory_fingerprint(&keys, &values);
        let mut mutated = keys.clone();
        mutated.row_mut(3)[1] += 0.25;
        assert_ne!(base, memory_fingerprint(&mutated, &values));
        assert_eq!(base, memory_fingerprint(&keys, &values));
    }

    #[test]
    fn near_duplicate_memories_fingerprint_apart() {
        // Keys and values differ, and the probed element is non-zero.
        let keys =
            Matrix::from_flat((0..32).map(|i| i as f32 * 0.25 - 3.0).collect(), 8, 4).unwrap();
        let values =
            Matrix::from_flat((0..32).map(|i| 2.0 - i as f32 * 0.125).collect(), 8, 4).unwrap();
        let edited = |edit: &dyn Fn(&mut Matrix)| {
            let mut k = keys.clone();
            edit(&mut k);
            memory_fingerprint(&k, &values)
        };
        let swapped_rows = {
            let (mut k, mut v) = (keys.clone(), values.clone());
            k.row_mut(2).copy_from_slice(keys.row(5));
            k.row_mut(5).copy_from_slice(keys.row(2));
            v.row_mut(2).copy_from_slice(values.row(5));
            v.row_mut(5).copy_from_slice(values.row(2));
            memory_fingerprint(&k, &v)
        };
        let reshape = |m: &Matrix| Matrix::from_flat(m.as_slice().to_vec(), 4, 8).unwrap();
        let fingerprints = [
            ("original", memory_fingerprint(&keys, &values)),
            ("sign flipped", edited(&|k| k.row_mut(3)[1] = -k.row(3)[1])),
            ("+0.0", edited(&|k| k.row_mut(4)[2] = 0.0)),
            ("-0.0", edited(&|k| k.row_mut(4)[2] = -0.0)),
            ("rows swapped", swapped_rows),
            (
                "keys and values swapped",
                memory_fingerprint(&values, &keys),
            ),
            (
                "reshaped 4x8",
                memory_fingerprint(&reshape(&keys), &reshape(&values)),
            ),
        ];
        for (i, (name_a, a)) in fingerprints.iter().enumerate() {
            for (name_b, b) in fingerprints.iter().skip(i + 1) {
                assert_ne!(a, b, "{name_a} and {name_b} share a fingerprint");
            }
        }
    }

    /// Flips bit `bit` of element `col` of row `row` of `matrix`.
    fn flip_bit(matrix: &mut Matrix, row: usize, col: usize, bit: u32) {
        let x = &mut matrix.row_mut(row)[col];
        *x = f32::from_bits(x.to_bits() ^ (1 << bit));
    }

    /// A `rows` x `d` memory whose elements are distinct within each row.
    fn distinct_memory(rows: usize, d: usize) -> (Matrix, Matrix) {
        let element = |i: usize| ((i * 53 % 97) as f32 - 48.0) / 8.0;
        let keys = Matrix::from_flat((0..rows * d).map(element).collect(), rows, d).unwrap();
        let values =
            Matrix::from_flat((0..rows * d).map(|i| element(i + 11)).collect(), rows, d).unwrap();
        (keys, values)
    }

    #[test]
    fn flipping_any_bit_changes_the_content_hash_and_the_fingerprint() {
        // Widths 1..=70 give every `len mod 16` tail of the 16-element stripes.
        use simd::test_support::content_hashes;
        let levels: Vec<SimdLevel> = [SimdLevel::Scalar, SimdLevel::Avx2]
            .into_iter()
            .filter(|level| level.available())
            .collect();
        for d in 1..=70 {
            let (mut keys, mut values) = distinct_memory(2, d);
            let fingerprint = memory_fingerprint(&keys, &values);
            let contents: Vec<Vec<u64>> = levels
                .iter()
                .map(|&level| content_hashes(level, &keys, &values))
                .collect();
            for (in_values, col, bit) in (0..2).flat_map(|m| {
                (0..d).flat_map(move |col| (0..32).map(move |bit| (m == 1, col, bit)))
            }) {
                let target = if in_values { &mut values } else { &mut keys };
                flip_bit(target, 1, col, bit);
                for (&level, contents) in levels.iter().zip(&contents) {
                    let flipped = content_hashes(level, &keys, &values);
                    assert_eq!(flipped[0], contents[0]);
                    assert_ne!(
                        flipped[1], contents[1],
                        "{level:?}, d = {d}, values = {in_values}, element {col}, bit {bit}"
                    );
                }
                assert_ne!(
                    memory_fingerprint(&keys, &values),
                    fingerprint,
                    "d = {d}, values = {in_values}, element {col}, bit {bit}"
                );
                let target = if in_values { &mut values } else { &mut keys };
                flip_bit(target, 1, col, bit);
            }
        }
    }

    #[test]
    fn swapping_two_rows_or_two_elements_of_a_row_changes_the_fingerprint() {
        let (n, d) = (6, 37);
        let (keys, values) = distinct_memory(n, d);
        let fingerprint = memory_fingerprint(&keys, &values);
        for a in 0..n {
            for b in a + 1..n {
                let swap_rows = |m: &Matrix| {
                    let mut swapped = m.clone();
                    swapped.row_mut(a).copy_from_slice(m.row(b));
                    swapped.row_mut(b).copy_from_slice(m.row(a));
                    swapped
                };
                assert_ne!(
                    memory_fingerprint(&swap_rows(&keys), &swap_rows(&values)),
                    fingerprint,
                    "rows {a} and {b}"
                );
            }
        }
        for in_values in [false, true] {
            for i in 0..d {
                for j in i + 1..d {
                    let (mut k, mut v) = (keys.clone(), values.clone());
                    let target = if in_values { &mut v } else { &mut k };
                    target.row_mut(2).swap(i, j);
                    assert_ne!(
                        memory_fingerprint(&k, &v),
                        fingerprint,
                        "values = {in_values}, elements {i} and {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn mismatched_prepared_state_is_rejected() {
        let (keys, values, query) = case(8, 4);
        let exact_memory = ExactBackend.prepare(&keys, &values).unwrap();
        assert_eq!(
            ApproximateBackend::conservative()
                .attend_prepared(&exact_memory, &query)
                .unwrap_err(),
            AttentionError::BackendMismatch {
                expected: "sorted",
                actual: "exact",
            }
        );
        assert_eq!(
            QuantizedBackend::paper()
                .attend_prepared(&exact_memory, &query)
                .unwrap_err(),
            AttentionError::BackendMismatch {
                expected: "quantized",
                actual: "exact",
            }
        );
        // A memory quantized under another input format is rejected too.
        let q42_memory = QuantizedBackend::new(QFormat::new(4, 2))
            .prepare(&keys, &values)
            .unwrap();
        assert!(matches!(
            QuantizedBackend::paper().attend_prepared(&q42_memory, &query),
            Err(AttentionError::InvalidParameter { name: "memory", .. })
        ));
    }

    #[test]
    fn shape_errors_propagate() {
        let (keys, values, _) = case(8, 4);
        let short = vec![0.0f32; 3];
        for backend in backends() {
            let memory = backend.prepare(&keys, &values).unwrap();
            assert!(matches!(
                backend.attend_prepared(&memory, &short),
                Err(AttentionError::DimensionMismatch { .. })
            ));
        }
        let bad_values = Matrix::zeros(3, 4);
        assert!(ExactBackend.prepare(&keys, &bad_values).is_err());
    }

    #[test]
    fn profile_reports_approximate_work_only() {
        let (keys, values, query) = case(32, 8);
        let approx = ApproximateBackend::conservative();
        let memory = approx.prepare(&keys, &values).unwrap();
        let profile = approx.profile(&memory, &query).unwrap().unwrap();
        assert_eq!(profile.n, 32);
        assert!(profile.candidates >= 1);
        assert!(profile.selected <= profile.candidates);

        let exact_memory = ExactBackend.prepare(&keys, &values).unwrap();
        assert!(ExactBackend
            .profile(&exact_memory, &query)
            .unwrap()
            .is_none());
    }

    #[test]
    fn preprocess_ops_reflect_backend_work() {
        let (keys, values, _) = case(32, 8);
        let exact = ExactBackend.prepare(&keys, &values).unwrap();
        assert_eq!(exact.preprocess_ops(), 0);
        let sorted = ApproximateBackend::conservative()
            .prepare(&keys, &values)
            .unwrap();
        assert!(sorted.preprocess_ops() > 0);
        let quantized = QuantizedBackend::paper().prepare(&keys, &values).unwrap();
        assert!(quantized.preprocess_ops() >= 2 * 32 * 8);
    }
}
