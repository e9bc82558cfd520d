//! Sharded memories: one logical key/value memory split row-wise across shards.
//!
//! The paper's Section III-C scales A3 out by giving every unit an *independent*
//! attention operation. A [`ShardedMemory`] models the harder case: a key/value memory
//! too large (or too hot) for one unit, split row-wise into `K` shards that are served
//! in parallel and merged — the same per-partition/merge decomposition *kNN Attention
//! Demystified* (Haris, 2024) uses for top-k attention.
//!
//! * [`ShardPlan`] describes the row-wise split: `K` contiguous, balanced row ranges.
//! * [`ShardedMemory::prepare`] runs the backend's query-independent preprocessing on
//!   every shard independently; [`ShardedMemory::prepare_cached`] keys each shard
//!   separately in a [`MemoryCache`] via its own content fingerprint, so mutating one
//!   shard's rows invalidates only that shard's entry — untouched shards re-prepare
//!   for free.
//! * [`ShardedMemory::append_rows_cached`] grows the tail shard in place and, once
//!   the tail outgrows its share, rebalances: every new shard is built straight from
//!   the old shards' rows and prepared through the cache, and the entries of the
//!   shards it replaced are released, so the cache holds only shards some session
//!   serves.
//! * [`ComputeBackend::attend_sharded`] runs per-shard partial attention and merges:
//!   a numerically stable log-sum-exp rescale of per-shard partial softmax outputs for
//!   the dense datapaths ([`merge_partial_softmax`]), and a per-shard
//!   candidate-selection **union** ahead of global post-scoring for the approximate
//!   datapath ([`attend_sharded_union`]).
//!
//! # Numerics contract
//!
//! With a single shard every backend delegates to
//! [`ComputeBackend::attend_prepared`], so `K = 1` is **bit-identical** to the
//! unsharded path. With `K > 1` the exact float merge differs from the unsharded
//! result only in the order of float reductions (within ~1e-6 for workload value
//! ranges). The fixed-point datapath additionally carries per-shard
//! weight-quantization noise of order `2^-2f` per weight, because each shard
//! normalizes and quantizes its partial softmax locally before the merge rescales it —
//! the same error a real per-unit quantized pipeline would exhibit.

use std::ops::Range;
use std::sync::Arc;

use crate::attention::AttentionResult;
use crate::{AttentionError, Matrix};

use super::{
    attend_candidates, contents_fingerprint, fingerprint_extend, row_hash, select_stage, simd,
    sorted_columns, validate_append, validate_memory, validate_row_width, ComputeBackend,
    MemoryCache, PreparedMemory, SimdBackend,
};

/// How to split one logical memory across shards (row-wise, contiguous, balanced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
}

impl ShardPlan {
    /// Creates a plan splitting a memory into `shards` row ranges.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidParameter`] if `shards` is zero.
    pub fn new(shards: usize) -> Result<Self, AttentionError> {
        if shards == 0 {
            return Err(AttentionError::InvalidParameter {
                name: "shards",
                constraint: "at least one shard is required",
            });
        }
        Ok(Self { shards })
    }

    /// The trivial single-shard plan (the unsharded fast path).
    pub fn single() -> Self {
        Self { shards: 1 }
    }

    /// Requested shard count. A memory with fewer rows than shards yields one
    /// single-row shard per row instead (see [`ShardPlan::ranges`]).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Balanced contiguous row ranges for an `n`-row memory: `min(shards, n)`
    /// non-empty ranges whose lengths differ by at most one row (the first `n % k`
    /// ranges carry the extra row).
    pub fn ranges(&self, n: usize) -> Vec<Range<usize>> {
        let k = self.shards.min(n).max(1);
        let base = n / k;
        let extra = n % k;
        let mut start = 0;
        (0..k)
            .map(|s| {
                let len = base + usize::from(s < extra);
                let range = start..start + len;
                start += len;
                range
            })
            .collect()
    }
}

/// One shard of a [`ShardedMemory`]: a contiguous row range of the logical memory,
/// prepared independently by the backend.
#[derive(Debug, Clone)]
pub struct MemoryShard {
    start: usize,
    fingerprint: u64,
    memory: Arc<PreparedMemory>,
}

impl MemoryShard {
    /// First logical row this shard covers.
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last logical row this shard covers.
    pub fn end(&self) -> usize {
        self.start + self.memory.n()
    }

    /// Number of rows in this shard.
    pub fn rows(&self) -> usize {
        self.memory.n()
    }

    /// Content fingerprint of this shard's (keys, values) rows — the shard's own
    /// [`MemoryCache`] identity.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The backend's preparation of this shard.
    pub fn memory(&self) -> &PreparedMemory {
        &self.memory
    }

    /// A shared handle to the shard's prepared memory.
    pub fn memory_arc(&self) -> Arc<PreparedMemory> {
        Arc::clone(&self.memory)
    }
}

/// Outcome of one streaming mutation ([`ShardedMemory::append_rows_cached`] or
/// [`ShardedMemory::update_row_cached`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMutationStats {
    /// Incremental maintenance operations the backend charged (comparisons, moves,
    /// element re-quantizations). Zero when the backend fell back to a full
    /// re-prepare.
    pub incremental_ops: u64,
    /// Number of shards whose preparation was rebuilt from scratch (0 or 1 for a
    /// single mutation; rebalancing re-prepares go through the cache and are not
    /// counted here).
    pub full_reprepares: u64,
    /// True when an append grew the tail shard past the rebalance threshold and the
    /// memory was re-split into balanced shards.
    pub rebalanced: bool,
}

/// Cache outcome of one [`ShardedMemory::prepare_cached`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardPrepareStats {
    /// Shards served from the cache (no preprocessing ran).
    pub hits: u64,
    /// Shards whose preprocessing actually ran.
    pub misses: u64,
    /// Element-level preprocessing operations the missed shards performed (zero on a
    /// fully warm cache). The simulator converts this into host-side cycles.
    pub missed_preprocess_ops: u64,
}

/// One logical key/value memory split row-wise into independently prepared shards.
///
/// ```
/// use a3_core::backend::{ApproximateBackend, ComputeBackend, ShardPlan, ShardedMemory};
/// use a3_core::Matrix;
///
/// let keys = Matrix::from_rows(
///     (0..8).map(|i| vec![i as f32 * 0.1, 1.0 - i as f32 * 0.1]).collect::<Vec<_>>(),
/// ).unwrap();
/// let backend = ApproximateBackend::conservative();
/// let sharded = ShardedMemory::prepare(&backend, ShardPlan::new(3).unwrap(), &keys, &keys).unwrap();
/// assert_eq!(sharded.shard_count(), 3);
/// assert_eq!(sharded.n(), 8);
/// let out = backend.attend_sharded(&sharded, &[1.0, 0.2]).unwrap();
/// assert_eq!(out.output.len(), 2);
/// ```
///
/// It keeps each row's content hash (8 bytes; see
/// [`memory_fingerprint`](super::memory_fingerprint)): a row is hashed once,
/// and a rebalance reads no row to fingerprint its new shards.
#[derive(Debug, Clone)]
pub struct ShardedMemory {
    d: usize,
    plan: ShardPlan,
    shards: Vec<MemoryShard>,
    /// Every logical row's content hash, in row order (`n` of them), and the
    /// whole logical memory's fingerprint.
    row_hashes: Vec<u64>,
    fingerprint: u64,
}

/// Copies a contiguous row range of a matrix into its own matrix.
fn submatrix(matrix: &Matrix, range: &Range<usize>) -> Result<Matrix, AttentionError> {
    let d = matrix.dim();
    let flat = matrix
        .as_slice()
        .get(range.start * d..range.end * d)
        .ok_or(AttentionError::InvalidParameter {
            name: "range",
            constraint: "shard row range must lie within the matrix",
        })?;
    Matrix::from_flat(flat.to_vec(), range.len(), d)
}

impl ShardedMemory {
    /// Splits (`keys`, `values`) according to `plan` and runs `backend`'s
    /// preprocessing on every shard.
    ///
    /// # Errors
    ///
    /// Returns an error if the key/value shapes are inconsistent or the memory is
    /// empty.
    pub fn prepare(
        backend: &dyn ComputeBackend,
        plan: ShardPlan,
        keys: &Matrix,
        values: &Matrix,
    ) -> Result<Self, AttentionError> {
        // A zero-capacity cache is pass-through: every shard is prepared, none stored.
        Self::prepare_cached(backend, plan, &mut MemoryCache::new(0), keys, values)
            .map(|(memory, _)| memory)
    }

    /// [`ShardedMemory::prepare`] through a [`MemoryCache`], keyed **per shard**: each
    /// shard's rows fingerprint independently, so re-preparing a memory where only one
    /// shard changed re-sorts/re-quantizes that shard alone.
    ///
    /// # Errors
    ///
    /// Returns an error if the key/value shapes are inconsistent or the memory is
    /// empty.
    pub fn prepare_cached(
        backend: &dyn ComputeBackend,
        plan: ShardPlan,
        cache: &mut MemoryCache,
        keys: &Matrix,
        values: &Matrix,
    ) -> Result<(Self, ShardPrepareStats), AttentionError> {
        Self::prepare_named(backend, &backend.name(), plan, cache, keys, values)
    }

    /// [`ShardedMemory::prepare_cached`] for a caller that already holds
    /// `backend`'s name, so the preparation formats none.
    pub(crate) fn prepare_named(
        backend: &dyn ComputeBackend,
        backend_name: &str,
        plan: ShardPlan,
        cache: &mut MemoryCache,
        keys: &Matrix,
        values: &Matrix,
    ) -> Result<(Self, ShardPrepareStats), AttentionError> {
        validate_memory(keys, values)?;
        let mut row_hashes = Vec::with_capacity(keys.rows());
        SimdBackend::process().for_each_row_content_hash(keys, values, |_, h| row_hashes.push(h));
        let mut memory = Self {
            d: keys.dim(),
            plan,
            shards: Vec::new(),
            fingerprint: contents_fingerprint(keys.dim(), &row_hashes),
            row_hashes,
        };
        let mut stats = ShardPrepareStats::default();
        for range in plan.ranges(keys.rows()) {
            let rows = (&submatrix(keys, &range)?, &submatrix(values, &range)?);
            let shard =
                memory.prepare_shard(backend, backend_name, cache, range, rows, &mut stats)?;
            memory.shards.push(shard);
        }
        Ok((memory, stats))
    }

    /// The split this memory was prepared with (kept for rebalancing appends).
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Appends rows to the logical memory by growing the **tail shard** in place
    /// through the backend's incremental
    /// [`append_rows`](ComputeBackend::append_rows), keeping the shard's cache
    /// entry current via a delta fingerprint (a cache *update*, not a miss).
    ///
    /// When the tail shard grows past twice the balanced shard size
    /// (`2 * ceil(n / plan shards)`), the memory is re-split into balanced
    /// shards. Each new shard is copied straight from the old shards' rows and
    /// prepared through the cache, so a new shard whose rows equal an old
    /// shard's still hits that entry. Then the entries of the replaced shards
    /// are released ([`MemoryCache::take`]: no hit, miss or update counted), so
    /// the cache keeps no shard this memory stopped serving. A rebalancing
    /// append therefore moves [`MemoryCache::updates`] by one and
    /// [`MemoryCache::misses`] by the number of shards it prepared. Another
    /// session sharing a replaced shard keeps serving it through its own
    /// handle.
    ///
    /// # Errors
    ///
    /// Returns an error if the new rows' shapes are inconsistent with the memory,
    /// or if the backend's append (or the rebalancing re-prepare) fails.
    pub fn append_rows_cached(
        &mut self,
        backend: &dyn ComputeBackend,
        cache: &mut MemoryCache,
        new_keys: &Matrix,
        new_values: &Matrix,
    ) -> Result<ShardMutationStats, AttentionError> {
        self.append_rows_named(backend, &backend.name(), cache, new_keys, new_values)
    }

    /// [`ShardedMemory::append_rows_cached`] for a caller that already holds
    /// `backend`'s name, so the append formats none.
    pub(crate) fn append_rows_named(
        &mut self,
        backend: &dyn ComputeBackend,
        backend_name: &str,
        cache: &mut MemoryCache,
        new_keys: &Matrix,
        new_values: &Matrix,
    ) -> Result<ShardMutationStats, AttentionError> {
        let d = self.d;
        // Shape errors are caught before the tail shard's cache entry is
        // taken out, so a rejected append leaves the entry resident. Widths
        // are checked before an empty append returns, as on a whole memory.
        validate_append(d, new_keys, new_values)?;
        if new_keys.rows() == 0 {
            return Ok(ShardMutationStats::default());
        }
        let last = self
            .shards
            .last_mut()
            .ok_or(AttentionError::InvalidParameter {
                name: "shards",
                constraint: "a sharded memory must hold at least one shard",
            })?;
        // Each new row is content-hashed once, for the tail shard and the
        // whole memory.
        let (old_n, new_n) = (self.row_hashes.len(), new_keys.rows());
        let rows = &mut self.row_hashes;
        SimdBackend::process().for_each_row_content_hash(new_keys, new_values, |_, h| rows.push(h));
        let new = self.row_hashes.get(old_n..).unwrap_or_default();
        let old_fingerprint = last.fingerprint;
        let new_fingerprint = fingerprint_extend(old_fingerprint, last.rows(), d, new_n, new);
        let fingerprint = fingerprint_extend(self.fingerprint, old_n, d, new_n, new);
        let appended = cache.mutate_in_place(
            backend_name,
            &mut last.memory,
            (old_fingerprint, new_fingerprint),
            |memory| backend.append_rows(memory, new_keys, new_values),
        );
        if appended.is_err() {
            self.row_hashes.truncate(old_n);
        }
        let stats = appended?;
        last.fingerprint = new_fingerprint;
        self.fingerprint = fingerprint;
        let mut mutation = ShardMutationStats {
            incremental_ops: stats.incremental_ops,
            full_reprepares: u64::from(stats.full_reprepare),
            rebalanced: false,
        };
        let tail_rows = self.shards.last().map_or(0, MemoryShard::rows);
        if tail_rows > 2 * self.n().div_ceil(self.plan.shards()) {
            self.rebalance(backend, backend_name, cache)?;
            mutation.rebalanced = true;
        }
        Ok(mutation)
    }

    /// Overwrites one logical row in place through the backend's incremental
    /// [`update_row`](ComputeBackend::update_row), keeping the owning shard's
    /// cache entry current via a delta fingerprint. Row count and shard layout are
    /// unchanged, so no rebalance can trigger.
    ///
    /// # Errors
    ///
    /// Returns an error if `row` is out of range, the key/value dimensions are
    /// inconsistent, or the backend's update (or fallback re-prepare) fails.
    pub fn update_row_cached(
        &mut self,
        backend: &dyn ComputeBackend,
        cache: &mut MemoryCache,
        row: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<ShardMutationStats, AttentionError> {
        self.update_row_named(backend, &backend.name(), cache, row, key, value)
    }

    /// [`ShardedMemory::update_row_cached`] for a caller that already holds
    /// `backend`'s name, so the update formats none.
    pub(crate) fn update_row_named(
        &mut self,
        backend: &dyn ComputeBackend,
        backend_name: &str,
        cache: &mut MemoryCache,
        row: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<ShardMutationStats, AttentionError> {
        let (index, local) = self.locate(row).ok_or(AttentionError::InvalidParameter {
            name: "row",
            constraint: "row index must be within the sharded memory",
        })?;
        // Checked before the shard's cache entry is taken out, so a rejected
        // update leaves the entry resident.
        validate_row_width(self.d, key, value)?;
        let (Some(shard), Some(stored)) =
            (self.shards.get_mut(index), self.row_hashes.get_mut(row))
        else {
            return Err(AttentionError::InvalidParameter {
                name: "row",
                constraint: "row index must be within the sharded memory",
            });
        };
        // The old row's content hash is stored, so only the new row is read.
        let (old, new) = (*stored, simd::row_content_hash(key, value));
        let replace =
            |fp: u64, row| fp.wrapping_add(row_hash(row, new).wrapping_sub(row_hash(row, old)));
        let old_fingerprint = shard.fingerprint;
        let new_fingerprint = replace(old_fingerprint, local);
        let stats = cache.mutate_in_place(
            backend_name,
            &mut shard.memory,
            (old_fingerprint, new_fingerprint),
            |memory| backend.update_row(memory, local, key, value),
        )?;
        shard.fingerprint = new_fingerprint;
        *stored = new;
        self.fingerprint = replace(self.fingerprint, row);
        Ok(ShardMutationStats {
            incremental_ops: stats.incremental_ops,
            full_reprepares: u64::from(stats.full_reprepare),
            rebalanced: false,
        })
    }

    /// Re-splits the logical memory into balanced shards under the stored plan.
    /// Each new shard's rows are copied once, straight from the old shards, and
    /// prepared through the cache (a shard whose rows are unchanged still hits)
    /// under the fingerprint of their stored hashes. Once the new layout is in
    /// place, the entries of the old shards it does not reuse are released. On
    /// error the old layout stays.
    fn rebalance(
        &mut self,
        backend: &dyn ComputeBackend,
        backend_name: &str,
        cache: &mut MemoryCache,
    ) -> Result<(), AttentionError> {
        let ranges = self.plan.ranges(self.n());
        let mut shards = Vec::with_capacity(ranges.len());
        for range in ranges {
            let (keys, values) = self.gather(&range)?;
            let stats = &mut ShardPrepareStats::default();
            let rows = (&keys, &values);
            shards.push(self.prepare_shard(backend, backend_name, cache, range, rows, stats)?);
        }
        let replaced = std::mem::replace(&mut self.shards, shards);
        for old in replaced {
            if self.shards.iter().all(|s| s.fingerprint != old.fingerprint) {
                cache.take(backend_name, old.fingerprint);
            }
        }
        Ok(())
    }

    /// Copies the logical rows `range` out of the shards holding them into one
    /// key and one value matrix.
    fn gather(&self, range: &Range<usize>) -> Result<(Matrix, Matrix), AttentionError> {
        let d = self.d;
        let mut keys = Vec::with_capacity(range.len() * d);
        let mut values = Vec::with_capacity(range.len() * d);
        for shard in &self.shards {
            let rows = range.start.max(shard.start)..range.end.min(shard.end());
            if rows.is_empty() {
                continue;
            }
            let local = (rows.start - shard.start) * d..(rows.end - shard.start) * d;
            let (Some(shard_keys), Some(shard_values)) = (
                shard.memory.keys().as_slice().get(local.clone()),
                shard.memory.values().as_slice().get(local),
            ) else {
                return Err(AttentionError::InvalidParameter {
                    name: "range",
                    constraint: "shard row range must lie within the shard",
                });
            };
            keys.extend_from_slice(shard_keys);
            values.extend_from_slice(shard_values);
        }
        Ok((
            Matrix::from_flat(keys, range.len(), d)?,
            Matrix::from_flat(values, range.len(), d)?,
        ))
    }

    /// Total number of logical rows (`n`).
    pub fn n(&self) -> usize {
        self.row_hashes.len()
    }

    /// The whole logical memory's fingerprint.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Prepares the logical rows `range`, copied into `rows` (keys, values),
    /// through `cache` under the fingerprint of their stored hashes, and
    /// counts the lookup in `stats`.
    fn prepare_shard(
        &self,
        backend: &dyn ComputeBackend,
        backend_name: &str,
        cache: &mut MemoryCache,
        range: Range<usize>,
        (keys, values): (&Matrix, &Matrix),
        stats: &mut ShardPrepareStats,
    ) -> Result<MemoryShard, AttentionError> {
        let contents = self.row_hashes.get(range.clone()).unwrap_or_default();
        let fingerprint = contents_fingerprint(self.d, contents);
        let (memory, hit) =
            cache.get_or_prepare_named(backend, backend_name, keys, values, fingerprint)?;
        if hit {
            stats.hits += 1;
        } else {
            stats.misses += 1;
            stats.missed_preprocess_ops += memory.preprocess_ops();
        }
        Ok(MemoryShard {
            start: range.start,
            fingerprint,
            memory,
        })
    }

    /// Embedding dimension (`d`).
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of shards actually materialized (`min(plan shards, n)`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// True when the memory holds exactly one shard (the unsharded fast path).
    pub fn is_single(&self) -> bool {
        self.shards.len() == 1
    }

    /// The shards, in row order.
    pub fn shards(&self) -> &[MemoryShard] {
        &self.shards
    }

    /// Total preprocessing operations across all shards (what a cold prepare costs).
    pub fn preprocess_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.memory.preprocess_ops()).sum()
    }

    /// The shard owning a logical row, as `(shard index, local row)`.
    pub fn locate(&self, row: usize) -> Option<(usize, usize)> {
        if row >= self.n() {
            return None;
        }
        let index = self.shards.partition_point(|s| s.end() <= row);
        self.shards.get(index).map(|s| (index, row - s.start))
    }

    pub(crate) fn validate_query(&self, query: &[f32]) -> Result<(), AttentionError> {
        if query.len() != self.d {
            return Err(AttentionError::DimensionMismatch {
                expected: self.d,
                actual: query.len(),
            });
        }
        Ok(())
    }
}

/// Numerically stable log-sum-exp merge of per-shard partial softmax results — the
/// cross-shard merge stage for datapaths that attend every row (exact, quantized).
///
/// Shard `s` reports its local result over rows `start_s..end_s`: scores `sᵢ`,
/// locally normalized weights `wᵢ = exp(sᵢ − maxₛ)/Zₛ` and partial output
/// `oₛ = Σ wᵢ vᵢ`. With the global maximum `M = maxₛ maxₛ` and
/// `Z = Σₛ Zₛ·e^{maxₛ−M}`, the globally normalized result is recovered by rescaling
/// each shard with `cₛ = Zₛ·e^{maxₛ−M}/Z`: `wᵢ′ = wᵢ·cₛ` and `o = Σₛ cₛ·oₛ`. All
/// reductions run in `f64`, so no shard's scores are ever exponentiated without a
/// max subtraction.
///
/// The per-shard normalisers `Zₛ` dominate the merge's cost (one `exp` per row), so
/// on AVX2 hosts they run in lanes: `maxₛ` in eight `f32` lanes and each
/// `exp(f64(sᵢ) − maxₛ)` in four `f64` lanes, by a Cody–Waite reduction and a
/// degree-13 Taylor polynomial that is within 1 ulp of libm's `f64::exp` for every
/// argument whose result is at least `2^-1022` (tested on a dense sweep of
/// `[−745.2, 0]`). Smaller terms are flushed to zero, which cannot move `Zₛ`: it
/// holds the shard maximum's own `exp(0) = 1`, and at most `2^9` flushed terms below
/// `2^-1022` stay far below half an ulp of that. The lane sums differ from an
/// in-order libm sum only at the level of `f64` rounding, far below the `f32`
/// outputs' precision; golden hashes pin the sharded quantized outputs on both
/// dispatch levels. The level is detected once per process, on the first merge
/// or memory fingerprint, and `len mod 4` tail rows, the `K` rescale factors, non-AVX2 hosts and
/// `A3_FORCE_SCALAR=1` (set before the process starts) use libm `exp`.
///
/// # Panics
///
/// Panics unless `partials` holds exactly one result per shard of `memory`,
/// in shard order.
pub fn merge_partial_softmax(
    memory: &ShardedMemory,
    partials: &[AttentionResult],
) -> AttentionResult {
    let shards = memory.shard_count();
    assert_eq!(shards, partials.len(), "one partial result per shard");
    let mut scores = Vec::with_capacity(memory.n());
    let mut weights = Vec::with_capacity(memory.n());
    let output = merge_core(
        memory.d(),
        partials
            .iter()
            .map(|p| (p.scores.as_slice(), p.output.as_slice())),
        |s, scale| {
            if let Some(partial) = partials.get(s) {
                scores.extend_from_slice(&partial.scores);
                weights.extend(partial.weights.iter().map(|&w| rescale_weight(w, scale)));
            }
        },
    );
    AttentionResult {
        scores,
        weights,
        output,
    }
}

/// The arithmetic of the log-sum-exp merge, shared by [`merge_partial_softmax`]
/// and the quantized backend's fused sharded query, which keeps its partial
/// results in slices of merged buffers instead of one [`AttentionResult`] per
/// shard. `partials` yields each shard's partial scores and partial output, in
/// shard order; `rescale(s, c_s)` is called once per shard, in order, to
/// apply [`rescale_weight`] to shard `s`'s locally normalised weights. Returns
/// the merged output.
pub(super) fn merge_core<'p>(
    d: usize,
    partials: impl Iterator<Item = (&'p [f32], &'p [f32])> + Clone,
    mut rescale: impl FnMut(usize, f64),
) -> Vec<f32> {
    // The level is detected once per process (`SimdBackend::process`).
    let simd = SimdBackend::process();
    // Per-shard statistics the merge unit receives alongside each partial output.
    let stats: Vec<(f64, f64)> = partials
        .clone()
        .map(|(scores, _)| simd.softmax_stats(scores))
        .collect();
    let global_max = stats
        .iter()
        .fold(f64::NEG_INFINITY, |acc, &(max, _)| acc.max(max));
    let denom: f64 = stats
        .iter()
        .map(|&(max, z)| z * (max - global_max).exp())
        .sum();

    let mut output = vec![0.0f64; d];
    for (s, ((_, partial), &(max, z))) in partials.zip(&stats).enumerate() {
        let scale = z * (max - global_max).exp() / denom;
        rescale(s, scale);
        for (o, &p) in output.iter_mut().zip(partial) {
            *o += scale * f64::from(p);
        }
    }
    output.into_iter().map(|o| o as f32).collect()
}

/// One locally normalised weight rescaled by its shard's merge factor `c_s`.
pub(super) fn rescale_weight(w: f32, scale: f64) -> f32 {
    (f64::from(w) * scale) as f32
}

/// The per-shard path of [`ComputeBackend::attend_sharded`] for datapaths that
/// attend every row: each shard's [`ComputeBackend::attend_prepared`] in shard
/// order (the first error wins), then [`merge_partial_softmax`].
pub(super) fn attend_sharded_dense<B: ComputeBackend + ?Sized>(
    backend: &B,
    memory: &ShardedMemory,
    query: &[f32],
) -> Result<AttentionResult, AttentionError> {
    let partials: Result<Vec<AttentionResult>, AttentionError> = memory
        .shards()
        .iter()
        .map(|shard| backend.attend_prepared(shard.memory(), query))
        .collect();
    Ok(merge_partial_softmax(memory, &partials?))
}

/// Sharded execution of the approximate datapath: per-shard greedy candidate
/// selection over each shard's own sorted key columns, a **union** of the per-shard
/// candidate sets at the merge, then global post-scoring selection, softmax and the
/// weighted sum — the whole-memory pipeline's stages 2–4, run by the same function
/// with rows addressed through [`ShardedMemory::locate`]. (The per-partition top-k +
/// merge decomposition of kNN attention.)
///
/// `M` resolves against each shard's row count, so a `FractionOfN` budget splits the
/// candidate-selection work across shards. A shard whose greedy selection comes back
/// empty contributes its best greedy row, mirroring the unsharded fallback per unit.
pub(crate) fn attend_sharded_union(
    backend: &super::ApproximateBackend,
    memory: &ShardedMemory,
    query: &[f32],
) -> Result<AttentionResult, AttentionError> {
    let config = backend.config();

    // Stage 1, per shard (in parallel on hardware): candidate selection.
    let mut candidates: Vec<usize> = Vec::new();
    for shard in memory.shards() {
        let (rows, _) = select_stage(config, sorted_columns(shard.memory())?, query);
        candidates.extend(rows.iter().map(|&r| shard.start() + r));
    }
    // Shards are visited in row order and report ascending local rows, so the union
    // is already sorted ascending and duplicate-free (shards are disjoint).

    let (result, _) = attend_candidates(config, memory.n(), memory.d(), &candidates, query, |r| {
        let (index, local) = memory.locate(r)?;
        let shard = memory.shards().get(index)?.memory();
        Some((shard.keys(), shard.values(), local))
    })?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{preprocess_count, ApproxConfig};
    use crate::attention::stable_softmax;
    use crate::backend::{memory_fingerprint, ApproximateBackend, ExactBackend, QuantizedBackend};

    fn memory_case(n: usize, d: usize) -> (Matrix, Matrix, Vec<f32>) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| (((i * 13 + j * 7) % 29) as f32 - 14.0) / 14.0)
                    .collect()
            })
            .collect();
        let keys = Matrix::from_rows(rows.clone()).unwrap();
        let values = Matrix::from_rows(
            rows.iter()
                .map(|r| r.iter().map(|x| x * 0.5 + 0.1).collect())
                .collect(),
        )
        .unwrap();
        let query: Vec<f32> = (0..d).map(|j| ((j % 5) as f32 - 2.0) / 2.0).collect();
        (keys, values, query)
    }

    fn backends() -> Vec<Box<dyn ComputeBackend>> {
        vec![
            Box::new(ExactBackend),
            Box::new(ApproximateBackend::conservative()),
            Box::new(QuantizedBackend::paper()),
        ]
    }

    #[test]
    fn plan_rejects_zero_and_balances_ranges() {
        assert!(ShardPlan::new(0).is_err());
        assert_eq!(ShardPlan::single().shards(), 1);
        let ranges = ShardPlan::new(3).unwrap().ranges(10);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        // More shards than rows: one row per shard.
        let tiny = ShardPlan::new(8).unwrap().ranges(3);
        assert_eq!(tiny, vec![0..1, 1..2, 2..3]);
        // Exactly divisible.
        let even = ShardPlan::new(4).unwrap().ranges(8);
        assert!(even.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn sharded_prepare_covers_every_row_exactly_once() {
        let (keys, values, _) = memory_case(11, 4);
        for k in [1, 2, 3, 4, 11, 20] {
            let sharded =
                ShardedMemory::prepare(&ExactBackend, ShardPlan::new(k).unwrap(), &keys, &values)
                    .unwrap();
            assert_eq!(sharded.n(), 11);
            assert_eq!(sharded.d(), 4);
            assert_eq!(sharded.shard_count(), k.min(11));
            let mut covered = 0;
            for shard in sharded.shards() {
                assert_eq!(shard.start(), covered);
                covered = shard.end();
                // Shard rows are the original rows.
                for local in 0..shard.rows() {
                    assert_eq!(
                        shard.memory().keys().row(local),
                        keys.row(shard.start() + local)
                    );
                }
            }
            assert_eq!(covered, 11);
            for row in 0..11 {
                let (s, local) = sharded.locate(row).unwrap();
                assert_eq!(sharded.shards()[s].start() + local, row);
            }
            assert_eq!(sharded.locate(11), None);
        }
    }

    #[test]
    fn single_shard_attend_is_bit_identical_for_every_backend() {
        let (keys, values, query) = memory_case(17, 6);
        for backend in backends() {
            let unsharded = backend.attend(&keys, &values, &query).unwrap();
            let sharded =
                ShardedMemory::prepare(backend.as_ref(), ShardPlan::single(), &keys, &values)
                    .unwrap();
            assert!(sharded.is_single());
            let merged = backend.attend_sharded(&sharded, &query).unwrap();
            assert_eq!(merged, unsharded, "{}", backend.name());
        }
    }

    #[test]
    fn exact_merge_is_within_tolerance_for_uneven_shard_counts() {
        let (keys, values, query) = memory_case(23, 8);
        let unsharded = ExactBackend.attend(&keys, &values, &query).unwrap();
        for k in [2, 3, 5, 7, 23] {
            let sharded =
                ShardedMemory::prepare(&ExactBackend, ShardPlan::new(k).unwrap(), &keys, &values)
                    .unwrap();
            let merged = ExactBackend.attend_sharded(&sharded, &query).unwrap();
            // Scores are the same dot products over the same rows: bit-identical.
            assert_eq!(merged.scores, unsharded.scores, "k={k}");
            for (a, b) in merged.output.iter().zip(&unsharded.output) {
                assert!((a - b).abs() < 1e-5, "k={k}: {a} vs {b}");
            }
            for (a, b) in merged.weights.iter().zip(&unsharded.weights) {
                assert!((a - b).abs() < 1e-5, "k={k}: {a} vs {b}");
            }
            let sum: f32 = merged.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn quantized_merge_carries_only_weight_quantization_noise() {
        let (keys, values, query) = memory_case(24, 8);
        let backend = QuantizedBackend::paper();
        let unsharded = backend.attend(&keys, &values, &query).unwrap();
        for k in [2, 3, 4] {
            let sharded =
                ShardedMemory::prepare(&backend, ShardPlan::new(k).unwrap(), &keys, &values)
                    .unwrap();
            let merged = backend.attend_sharded(&sharded, &query).unwrap();
            // Per-shard weight quantization (Q0.2f steps) is the only extra noise; for
            // Q4.4 inputs the output deviation stays well under a few weight steps.
            for (a, b) in merged.output.iter().zip(&unsharded.output) {
                assert!((a - b).abs() < 0.05, "k={k}: {a} vs {b}");
            }
        }
    }

    /// The merge with libm `exp` per row, summed in row order: the oracle
    /// the lane normaliser must track.
    fn merge_oracle(memory: &ShardedMemory, partials: &[AttentionResult]) -> AttentionResult {
        let stats: Vec<(f64, f64)> = partials
            .iter()
            .map(|p| {
                let max = p
                    .scores
                    .iter()
                    .fold(f64::NEG_INFINITY, |acc, &s| acc.max(f64::from(s)));
                let z = p
                    .scores
                    .iter()
                    .map(|&s| (f64::from(s) - max).exp())
                    .sum::<f64>();
                (max, z)
            })
            .collect();
        let global_max = stats
            .iter()
            .fold(f64::NEG_INFINITY, |acc, &(max, _)| acc.max(max));
        let denom: f64 = stats
            .iter()
            .map(|&(max, z)| z * (max - global_max).exp())
            .sum();
        let mut scores = Vec::new();
        let mut weights = Vec::new();
        let mut output = vec![0.0f64; memory.d()];
        for (partial, &(max, z)) in partials.iter().zip(&stats) {
            let scale = z * (max - global_max).exp() / denom;
            scores.extend_from_slice(&partial.scores);
            weights.extend(
                partial
                    .weights
                    .iter()
                    .map(|&w| (f64::from(w) * scale) as f32),
            );
            for (o, &p) in output.iter_mut().zip(&partial.output) {
                *o += scale * f64::from(p);
            }
        }
        AttentionResult {
            scores,
            weights,
            output: output.into_iter().map(|o| o as f32).collect(),
        }
    }

    /// Distance in `f32` units in the last place (signed zeros coincide).
    fn ulps_f32(a: f32, b: f32) -> u64 {
        let ordered = |x: f32| {
            let bits = x.to_bits();
            let magnitude = i64::from(bits & 0x7FFF_FFFF);
            if bits >> 31 == 1 {
                -magnitude
            } else {
                magnitude
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    /// A 2-column memory whose row `i` scores exactly `scores[i]` against the
    /// query `[1, 0]`, with seeded values.
    fn scored_memory(scores: &[f32]) -> (Matrix, Matrix) {
        let keys = Matrix::from_rows(scores.iter().map(|&s| vec![s, 0.0]).collect()).unwrap();
        let values = Matrix::from_rows(
            (0..scores.len())
                .map(|i| vec![(i as f32 * 0.71).sin(), (i as f32 * 1.3).cos()])
                .collect(),
        )
        .unwrap();
        (keys, values)
    }

    #[test]
    fn merge_tracks_the_libm_oracle_in_its_extreme_cases() {
        let spread: Vec<f32> = vec![
            0.0, -1.0, -100.0, -300.0, -700.0, -708.0, -708.5, -709.0, -720.0, -744.0, -745.5,
            -760.0, -2.0, -3.5, -710.0, -730.0,
        ];
        let cases: Vec<(&str, Vec<f32>, usize)> = vec![
            // Shard maxima 800 apart: the second shard's rescale factor
            // exp(-800) underflows to 0.
            (
                "underflowing rescale",
                (0..16)
                    .map(|i| {
                        if i < 8 {
                            -(i as f32) * 0.4
                        } else {
                            -800.0 - i as f32
                        }
                    })
                    .collect(),
                2,
            ),
            // Both shards spread past 708 below their maxima: terms in the
            // flushed (subnormal) and underflowed regions.
            ("score spread past 708", spread, 2),
            // n = 13 in 7 shards leaves a 1-row last shard.
            (
                "1-row shard",
                (0..13).map(|i| (i as f32 * 0.9).sin() * 4.0).collect(),
                7,
            ),
        ];
        let query = [1.0, 0.0];
        for (label, scores, shards) in cases {
            let (keys, values) = scored_memory(&scores);
            let plan = ShardPlan::new(shards).unwrap();
            let memory = ShardedMemory::prepare(&ExactBackend, plan, &keys, &values).unwrap();
            assert_eq!(memory.shard_count(), shards, "{label}");
            let partials: Vec<AttentionResult> = memory
                .shards()
                .iter()
                .map(|s| ExactBackend.attend_prepared(s.memory(), &query).unwrap())
                .collect();
            let merged = merge_partial_softmax(&memory, &partials);
            let oracle = merge_oracle(&memory, &partials);
            assert_eq!(merged.scores, scores, "{label}");
            for (got, want) in merged
                .weights
                .iter()
                .zip(&oracle.weights)
                .chain(merged.output.iter().zip(&oracle.output))
            {
                assert!(ulps_f32(*got, *want) <= 1, "{label}: {got:e} vs {want:e}");
            }
            let sum: f32 = merged.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "{label}: weight sum {sum}");
            assert_eq!(
                merged,
                ExactBackend.attend_sharded(&memory, &query).unwrap(),
                "{label}"
            );
        }
    }

    #[test]
    fn approximate_union_keeps_the_dominant_row_across_shards() {
        // One strongly relevant row per shard-half; the union must retain both.
        let n = 32;
        let d = 8;
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|_| if i == 3 || i == 27 { 0.9 } else { -0.1 })
                    .collect()
            })
            .collect();
        let keys = Matrix::from_rows(rows).unwrap();
        let values = keys.clone();
        let query = vec![0.5; d];
        let backend = ApproximateBackend::conservative();
        let sharded =
            ShardedMemory::prepare(&backend, ShardPlan::new(2).unwrap(), &keys, &values).unwrap();
        let merged = backend.attend_sharded(&sharded, &query).unwrap();
        assert!(merged.weights[3] > 0.0, "shard-0 dominant row must survive");
        assert!(
            merged.weights[27] > 0.0,
            "shard-1 dominant row must survive"
        );
        let sum: f32 = merged.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        // On this easy case the union selects the same two rows as the unsharded
        // approximate pipeline, so the outputs agree.
        let unsharded = backend.attend(&keys, &values, &query).unwrap();
        for (a, b) in merged.output.iter().zip(&unsharded.output) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn unapproximated_union_is_bit_identical_to_the_whole_memory() {
        // Without approximation every row is a candidate and survives, so the union
        // attends the rows the whole memory does, through the same stages 2–4. Row 3
        // of the second memory scores 201 below row 0: its weight underflows to
        // exactly 0, so its infinite value must not reach the output.
        let (keys, values, query) = memory_case(29, 7);
        let rows = |rows: [[f32; 2]; 4]| Matrix::from_rows(rows.map(Vec::from).to_vec()).unwrap();
        let zero_weight_inf = (
            rows([[1.0, 0.0], [0.9, 0.1], [0.8, 0.0], [-200.0, 0.0]]),
            rows([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [f32::INFINITY, 1.0]]),
            vec![1.0, 0.0],
        );
        assert_eq!(stable_softmax(&[1.0, 0.9, 0.8, -200.0])[3], 0.0);
        let bits = |r: &AttentionResult| -> Vec<u32> {
            let all = r.scores.iter().chain(&r.weights).chain(&r.output);
            all.map(|x| x.to_bits()).collect()
        };
        let backend = ApproximateBackend::new(ApproxConfig::none());
        for (keys, values, query) in [(keys, values, query), zero_weight_inf] {
            let whole = backend.prepare(&keys, &values).unwrap();
            let expected = backend.attend_prepared(&whole, &query).unwrap();
            assert!(expected.output.iter().all(|x| x.is_finite()));
            for shards in 2..=4 {
                let plan = ShardPlan::new(shards).unwrap();
                let sharded = ShardedMemory::prepare(&backend, plan, &keys, &values).unwrap();
                let merged = backend.attend_sharded(&sharded, &query).unwrap();
                assert_eq!(bits(&merged), bits(&expected), "{shards} shards");
            }
        }
    }

    #[test]
    fn batch_sharded_is_bit_identical_to_sequential_and_empty_is_legal() {
        let (keys, values, query) = memory_case(20, 6);
        let flipped: Vec<f32> = query.iter().map(|x| -x).collect();
        let queries = [query.as_slice(), flipped.as_slice()];
        for backend in backends() {
            let sharded = ShardedMemory::prepare(
                backend.as_ref(),
                ShardPlan::new(3).unwrap(),
                &keys,
                &values,
            )
            .unwrap();
            let batch = backend.attend_batch_sharded(&sharded, &queries).unwrap();
            assert_eq!(batch.len(), 2);
            for (q, out) in queries.iter().zip(&batch) {
                assert_eq!(out, &backend.attend_sharded(&sharded, q).unwrap());
            }
            assert!(backend
                .attend_batch_sharded(&sharded, &[])
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn mutating_one_shard_invalidates_only_that_shards_cache_entry() {
        let backend = ApproximateBackend::conservative();
        let (keys, values, _) = memory_case(32, 8);
        let plan = ShardPlan::new(4).unwrap();
        let mut cache = MemoryCache::new(16);

        let (_, cold) =
            ShardedMemory::prepare_cached(&backend, plan, &mut cache, &keys, &values).unwrap();
        assert_eq!((cold.hits, cold.misses), (0, 4));
        assert!(cold.missed_preprocess_ops > 0);

        // Warm re-prepare: every shard hits, zero key-column sorts run.
        let sorts_before = preprocess_count();
        let (_, warm) =
            ShardedMemory::prepare_cached(&backend, plan, &mut cache, &keys, &values).unwrap();
        assert_eq!((warm.hits, warm.misses), (4, 0));
        assert_eq!(warm.missed_preprocess_ops, 0);
        assert_eq!(
            preprocess_count(),
            sorts_before,
            "a fully warm sharded re-prepare must perform zero sorts"
        );

        // Mutate one row inside the third shard (rows 16..24 of 32/4): only that
        // shard's entry is invalidated, the untouched shards still hit.
        let mut mutated = keys.clone();
        mutated.row_mut(17)[0] += 1.0;
        let sorts_before = preprocess_count();
        let (resharded, partial) =
            ShardedMemory::prepare_cached(&backend, plan, &mut cache, &mutated, &values).unwrap();
        assert_eq!((partial.hits, partial.misses), (3, 1));
        assert_eq!(
            preprocess_count(),
            sorts_before + 1,
            "exactly the mutated shard must re-sort"
        );
        // The mutated shard's fingerprint changed; the others are stable.
        let (original, _) =
            ShardedMemory::prepare_cached(&backend, plan, &mut cache, &keys, &values).unwrap();
        for (s, (a, b)) in original.shards().iter().zip(resharded.shards()).enumerate() {
            if s == 2 {
                assert_ne!(a.fingerprint(), b.fingerprint());
            } else {
                assert_eq!(a.fingerprint(), b.fingerprint());
            }
        }
    }

    #[test]
    fn shape_errors_propagate_through_sharded_paths() {
        let (keys, values, _) = memory_case(8, 4);
        let plan = ShardPlan::new(2).unwrap();
        let bad_values = Matrix::zeros(3, 4);
        assert!(ShardedMemory::prepare(&ExactBackend, plan, &keys, &bad_values).is_err());
        let sharded = ShardedMemory::prepare(&ExactBackend, plan, &keys, &values).unwrap();
        assert!(matches!(
            ExactBackend.attend_sharded(&sharded, &[0.0; 3]),
            Err(AttentionError::DimensionMismatch { .. })
        ));
        // A sharded memory prepared by the wrong backend is rejected per shard.
        assert_eq!(
            ApproximateBackend::conservative()
                .attend_sharded(
                    &ShardedMemory::prepare(&ExactBackend, plan, &keys, &values).unwrap(),
                    &[0.0; 4],
                )
                .unwrap_err(),
            AttentionError::BackendMismatch {
                expected: "sorted",
                actual: "exact",
            }
        );
    }

    #[test]
    fn single_row_memory_collapses_to_one_shard() {
        let keys = Matrix::from_rows(vec![vec![0.4, -0.2]]).unwrap();
        let values = keys.clone();
        for backend in backends() {
            let sharded = ShardedMemory::prepare(
                backend.as_ref(),
                ShardPlan::new(4).unwrap(),
                &keys,
                &values,
            )
            .unwrap();
            assert_eq!(sharded.shard_count(), 1);
            let merged = backend.attend_sharded(&sharded, &[1.0, 1.0]).unwrap();
            let unsharded = backend.attend(&keys, &values, &[1.0, 1.0]).unwrap();
            assert_eq!(merged, unsharded, "{}", backend.name());
        }
    }

    #[test]
    fn streaming_append_matches_fresh_prepare_for_every_backend() {
        let (keys, values, query) = memory_case(12, 6);
        let (extra_keys, extra_values, _) = memory_case(15, 6);
        let mut grown_keys = keys.clone();
        grown_keys.append_rows(&extra_keys).unwrap();
        let mut grown_values = values.clone();
        grown_values.append_rows(&extra_values).unwrap();
        for backend in backends() {
            // Single shard: the grown layout equals the fresh layout, so results
            // must be bit-identical to preparing the concatenation from scratch.
            let mut cache = MemoryCache::new(8);
            let (mut sharded, _) = ShardedMemory::prepare_cached(
                backend.as_ref(),
                ShardPlan::single(),
                &mut cache,
                &keys,
                &values,
            )
            .unwrap();
            let stats = sharded
                .append_rows_cached(backend.as_ref(), &mut cache, &extra_keys, &extra_values)
                .unwrap();
            assert!(!stats.rebalanced);
            assert_eq!(sharded.n(), 27);
            assert_eq!(cache.updates(), 1, "{}", backend.name());
            let fresh = ShardedMemory::prepare(
                backend.as_ref(),
                ShardPlan::single(),
                &grown_keys,
                &grown_values,
            )
            .unwrap();
            assert_eq!(
                backend.attend_sharded(&sharded, &query).unwrap(),
                backend.attend_sharded(&fresh, &query).unwrap(),
                "{}",
                backend.name()
            );
            // The delta fingerprint equals a from-scratch fingerprint of the
            // grown memory, so the updated cache entry is addressable.
            let tail = sharded.shards().last().unwrap();
            assert_eq!(
                tail.fingerprint(),
                memory_fingerprint(&grown_keys, &grown_values)
            );
            assert!(cache.take(&backend.name(), tail.fingerprint()).is_some());
        }
    }

    #[test]
    fn streaming_append_on_sorted_backend_is_incremental_not_a_resort() {
        let backend = ApproximateBackend::conservative();
        let (keys, values, _) = memory_case(16, 4);
        let (extra_keys, extra_values, _) = memory_case(1, 4);
        let mut cache = MemoryCache::new(8);
        let (mut sharded, _) = ShardedMemory::prepare_cached(
            &backend,
            ShardPlan::single(),
            &mut cache,
            &keys,
            &values,
        )
        .unwrap();
        let sorts_before = preprocess_count();
        let stats = sharded
            .append_rows_cached(&backend, &mut cache, &extra_keys, &extra_values)
            .unwrap();
        assert_eq!(stats.full_reprepares, 0);
        assert!(stats.incremental_ops > 0);
        assert_eq!(
            preprocess_count(),
            sorts_before,
            "an incremental append must not re-sort the key columns"
        );
    }

    #[test]
    fn appends_past_the_threshold_rebalance_the_shards() {
        let (keys, values, query) = memory_case(16, 4);
        let backend = ExactBackend;
        let plan = ShardPlan::new(4).unwrap();
        let mut cache = MemoryCache::new(16);
        let (mut sharded, _) =
            ShardedMemory::prepare_cached(&backend, plan, &mut cache, &keys, &values).unwrap();
        // One row at a time: the tail shard grows until it crosses
        // 2 * ceil(n / 4) (tail 15 vs threshold 14 at the 11th append).
        let (extra_keys, extra_values, _) = memory_case(12, 4);
        let mut rebalances = 0;
        for i in 0..12 {
            let row_keys = Matrix::from_rows(vec![extra_keys.row(i).to_vec()]).unwrap();
            let row_values = Matrix::from_rows(vec![extra_values.row(i).to_vec()]).unwrap();
            let stats = sharded
                .append_rows_cached(&backend, &mut cache, &row_keys, &row_values)
                .unwrap();
            rebalances += u32::from(stats.rebalanced);
        }
        assert!(rebalances >= 1, "growing 16->28 rows must rebalance");
        assert_eq!(sharded.n(), 28);
        assert_eq!(sharded.shard_count(), 4);
        // Post-rebalance the shards are balanced again (sizes differ by <= 1).
        let sizes: Vec<usize> = sharded.shards().iter().map(MemoryShard::rows).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // And the logical contents equal the concatenation, in order.
        let mut grown_keys = keys.clone();
        grown_keys.append_rows(&extra_keys).unwrap();
        let mut grown_values = values.clone();
        grown_values.append_rows(&extra_values).unwrap();
        let fresh = ShardedMemory::prepare(&backend, plan, &grown_keys, &grown_values).unwrap();
        assert_eq!(
            backend.attend_sharded(&sharded, &query).unwrap(),
            backend.attend_sharded(&fresh, &query).unwrap()
        );
    }

    #[test]
    fn rows_are_content_hashed_once_and_a_rebalance_hashes_none() {
        use crate::backend::simd::test_support::ROWS_HASHED;
        let rows_hashed = || ROWS_HASHED.with(std::cell::Cell::get);
        let (keys, values, _) = memory_case(12, 4);
        let backend = ExactBackend;
        let mut cache = MemoryCache::new(16);
        let before = rows_hashed();
        let (mut sharded, _) = ShardedMemory::prepare_cached(
            &backend,
            ShardPlan::new(4).unwrap(),
            &mut cache,
            &keys,
            &values,
        )
        .unwrap();
        assert_eq!(rows_hashed() - before, 12, "one content hash per row");
        assert_eq!(sharded.fingerprint(), memory_fingerprint(&keys, &values));

        // The tail shard grows from 3 to 7 rows, below the rebalance
        // threshold of 2 * ceil(16 / 4) = 8; the rebalance then moves three
        // shard boundaries without hashing a row.
        let (extra_keys, extra_values, _) = memory_case(4, 4);
        sharded
            .append_rows_cached(&backend, &mut cache, &extra_keys, &extra_values)
            .unwrap();
        let before = rows_hashed();
        sharded
            .rebalance(&backend, &backend.name(), &mut cache)
            .unwrap();
        assert_eq!(rows_hashed(), before, "a rebalance hashes no row");

        let sizes: Vec<usize> = sharded.shards().iter().map(MemoryShard::rows).collect();
        assert_eq!(sizes, [4, 4, 4, 4]);
        let mut grown_keys = keys.clone();
        grown_keys.append_rows(&extra_keys).unwrap();
        let mut grown_values = values.clone();
        grown_values.append_rows(&extra_values).unwrap();
        assert_eq!(
            sharded.fingerprint(),
            memory_fingerprint(&grown_keys, &grown_values)
        );
        for shard in sharded.shards() {
            let range = shard.start()..shard.end();
            assert_eq!(
                shard.fingerprint(),
                memory_fingerprint(
                    &submatrix(&grown_keys, &range).unwrap(),
                    &submatrix(&grown_values, &range).unwrap()
                )
            );
        }
    }

    #[test]
    fn streaming_update_matches_fresh_prepare_and_keeps_layout() {
        let (keys, values, query) = memory_case(18, 5);
        let new_key = vec![0.3, -0.6, 0.9, 0.0, -0.2];
        let new_value = vec![0.1; 5];
        for backend in backends() {
            for k in [1usize, 3] {
                let plan = ShardPlan::new(k).unwrap();
                let mut cache = MemoryCache::new(8);
                let (mut sharded, _) = ShardedMemory::prepare_cached(
                    backend.as_ref(),
                    plan,
                    &mut cache,
                    &keys,
                    &values,
                )
                .unwrap();
                let stats = sharded
                    .update_row_cached(backend.as_ref(), &mut cache, 7, &new_key, &new_value)
                    .unwrap();
                assert!(!stats.rebalanced);
                assert_eq!(sharded.n(), 18);
                assert_eq!(sharded.shard_count(), k);
                let mut mutated_keys = keys.clone();
                mutated_keys.set_row(7, &new_key).unwrap();
                let mut mutated_values = values.clone();
                mutated_values.set_row(7, &new_value).unwrap();
                let fresh =
                    ShardedMemory::prepare(backend.as_ref(), plan, &mutated_keys, &mutated_values)
                        .unwrap();
                assert_eq!(
                    backend.attend_sharded(&sharded, &query).unwrap(),
                    backend.attend_sharded(&fresh, &query).unwrap(),
                    "{} k={k}",
                    backend.name()
                );
                // The owning shard's delta fingerprint matches a from-scratch
                // fingerprint of its mutated rows.
                let (s, _) = sharded.locate(7).unwrap();
                let shard = &sharded.shards()[s];
                let range = shard.start()..shard.end();
                assert_eq!(
                    shard.fingerprint(),
                    memory_fingerprint(
                        &submatrix(&mutated_keys, &range).unwrap(),
                        &submatrix(&mutated_values, &range).unwrap()
                    )
                );
                assert_eq!(cache.updates(), 1);
            }
        }
        // Out-of-range rows are rejected.
        let mut cache = MemoryCache::new(2);
        let (mut sharded, _) = ShardedMemory::prepare_cached(
            &ExactBackend,
            ShardPlan::single(),
            &mut cache,
            &keys,
            &values,
        )
        .unwrap();
        assert!(sharded
            .update_row_cached(&ExactBackend, &mut cache, 18, &new_key, &new_value)
            .is_err());
    }

    #[test]
    fn sharding_reduces_total_preprocess_ops_for_the_sorted_backend() {
        // d·(n/k)·log2(n/k) summed over k shards is below d·n·log2(n).
        let (keys, values, _) = memory_case(64, 8);
        let backend = ApproximateBackend::conservative();
        let whole = backend.prepare(&keys, &values).unwrap().preprocess_ops();
        let sharded =
            ShardedMemory::prepare(&backend, ShardPlan::new(4).unwrap(), &keys, &values).unwrap();
        assert!(sharded.preprocess_ops() < whole);
    }
}
