//! Cache of prepared memories, keyed by memory identity, with pluggable
//! admission/eviction policies (LRU and cost-aware).
//!
//! Serving workloads issue many batches against a small working set of key/value
//! memories (one per passage/knowledge base/sequence). The preprocessing a backend
//! performs in [`ComputeBackend::prepare`] is query-independent, so a cache keyed by
//! the memory's content fingerprint lets every batch after the first skip it entirely
//! — the software analogue of the sorted-key SRAM staying resident across queries in
//! the hardware (paper Section IV-C).
//!
//! Prepare cost differs by orders of magnitude across backends and memory sizes
//! (an exact prepare is a copy; a sorted/quantized prepare is `O(n·d·log n)` work),
//! so under a skewed multi-tenant working set plain recency is the wrong eviction
//! signal: it happily evicts an expensive, popular preparation to keep a cheap
//! one-off. [`CacheAdmission::CostAware`] weighs prepare cost against popularity
//! with the Greedy-Dual-Size-Frequency rule: each entry carries a retention
//! priority `L + frequency · cost` (cost = [`PreparedMemory::preprocess_ops`]),
//! eviction removes the minimum-priority entry, and the cache's inflation value
//! `L` rises to the evicted priority so long-resident entries age out rather than
//! squatting forever.
//!
//! An entry's key is the slot of its backend's name in a per-cache name table
//! plus the memory's content fingerprint. The table holds each distinct name
//! once; [`MemoryCache::take`], [`MemoryCache::insert_updated`] and the
//! in-place mutation behind the serving layer's streaming appends find the slot
//! by comparing `&str`s, so keeping an entry current allocates nothing once the
//! name is known; the server's registrations and rebalances format none.
//!
//! The fingerprint ([`memory_fingerprint`]) hashes each row's content once, in
//! one pass, then mixes in its position. A lookup checks shapes first: the
//! fingerprint covers only the rows keys and values share.
//!
//! The cache holds only preparations some session serves. A streaming append or
//! row update moves its entry to the mutated memory's fingerprint instead of
//! leaving the old contents resident, and a sharded memory's rebalance
//! ([`crate::backend::ShardedMemory::append_rows_cached`]) releases the entries
//! of the shards it replaces. A session that still holds a released memory
//! keeps serving it through its own handle; only the cache forgets it.

use std::collections::HashMap;
use std::sync::Arc;

use crate::{AttentionError, Matrix};

use super::{memory_fingerprint, validate_memory, ComputeBackend, PreparedMemory};

/// Cache key: the slot of the backend's name in [`MemoryCache`]'s name table
/// (different backends — or differently configured backends — prepare
/// different state) plus the memory's content fingerprint.
type CacheKey = (usize, u64);

/// Which entry a full [`MemoryCache`] sacrifices to admit a new preparation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CacheAdmission {
    /// Evict the least recently used entry, regardless of how expensive it was
    /// to prepare. The historical default.
    #[default]
    Lru,
    /// Greedy-Dual-Size-Frequency: evict the entry with the smallest
    /// `L + frequency · prepare_cost` priority, so popular *and* expensive
    /// preparations outlive cheap or cold ones. Recency breaks ties.
    CostAware,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    memory: Arc<PreparedMemory>,
    last_used: u64,
    /// Lookups served by this entry since admission (1 at admission).
    frequency: u64,
    /// Preprocessing operations a re-prepare would cost (at least 1).
    cost: u64,
    /// Greedy-dual retention priority (`L + frequency · cost` at last touch).
    priority: u64,
}

/// A bounded cache of [`PreparedMemory`] values with a configurable eviction
/// policy ([`CacheAdmission`]; plain LRU by default).
///
/// Entries are shared via [`Arc`], so a caller can keep serving a prepared memory
/// after it has been evicted. Hit/miss counters make cache effectiveness observable
/// (the cycle-level simulator copies them into its report: a hit means the batch paid
/// zero preprocessing cycles).
///
/// ```
/// use a3_core::backend::{ExactBackend, MemoryCache};
/// use a3_core::Matrix;
/// let keys = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
/// let mut cache = MemoryCache::new(8);
/// let (_, hit) = cache.get_or_prepare(&ExactBackend, &keys, &keys).unwrap();
/// assert!(!hit);
/// let (_, hit) = cache.get_or_prepare(&ExactBackend, &keys, &keys).unwrap();
/// assert!(hit);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct MemoryCache {
    capacity: usize,
    admission: CacheAdmission,
    /// Every backend name an entry was keyed by, each once; a key holds its
    /// name's index.
    names: Vec<String>,
    entries: HashMap<CacheKey, CacheEntry>,
    clock: u64,
    /// Greedy-dual inflation value: rises to each evicted entry's priority.
    inflation: u64,
    hits: u64,
    misses: u64,
    updates: u64,
}

impl MemoryCache {
    /// Creates an LRU cache holding at most `capacity` prepared memories.
    ///
    /// A capacity of 0 is a **pass-through cache**: every lookup runs the backend's
    /// preprocessing, nothing is ever stored, and the hit counter stays at zero. The
    /// simulator uses this to model per-request (uncached) serving with the same code
    /// path as cached serving.
    pub fn new(capacity: usize) -> Self {
        Self::with_admission(capacity, CacheAdmission::Lru)
    }

    /// Creates a cache with an explicit admission/eviction policy.
    pub fn with_admission(capacity: usize, admission: CacheAdmission) -> Self {
        Self {
            capacity,
            admission,
            names: Vec::new(),
            entries: HashMap::new(),
            clock: 0,
            inflation: 0,
            hits: 0,
            misses: 0,
            updates: 0,
        }
    }

    /// The admission/eviction policy in force.
    pub fn admission(&self) -> CacheAdmission {
        self.admission
    }

    /// Returns the prepared memory for (`keys`, `values`) under `backend`, preparing
    /// and inserting it on a miss. The boolean is `true` on a cache hit (no
    /// preprocessing ran).
    ///
    /// # Errors
    ///
    /// As [`MemoryCache::get_or_prepare_with_fingerprint`].
    pub fn get_or_prepare(
        &mut self,
        backend: &dyn ComputeBackend,
        keys: &Matrix,
        values: &Matrix,
    ) -> Result<(Arc<PreparedMemory>, bool), AttentionError> {
        // Shape errors come before the memory is hashed.
        validate_memory(keys, values)?;
        let fingerprint = memory_fingerprint(keys, values);
        self.get_or_prepare_with_fingerprint(backend, keys, values, fingerprint)
    }

    /// [`MemoryCache::get_or_prepare`] with a `fingerprint` the caller already
    /// computed over exactly (`keys`, `values`) — e.g. the per-shard fingerprints a
    /// [`crate::backend::ShardedMemory`] keeps — so the lookup does not hash the
    /// memory contents a second time.
    ///
    /// # Errors
    ///
    /// Returns [`PreparedMemory::new`]'s shape errors before the lookup and
    /// propagates any preparation error from the backend (nothing is inserted
    /// and no counter moves in either case).
    pub fn get_or_prepare_with_fingerprint(
        &mut self,
        backend: &dyn ComputeBackend,
        keys: &Matrix,
        values: &Matrix,
        fingerprint: u64,
    ) -> Result<(Arc<PreparedMemory>, bool), AttentionError> {
        self.get_or_prepare_named(backend, &backend.name(), keys, values, fingerprint)
    }

    /// [`MemoryCache::get_or_prepare_with_fingerprint`] for a caller that
    /// already holds `backend`'s name, so the lookup formats none.
    pub(crate) fn get_or_prepare_named(
        &mut self,
        backend: &dyn ComputeBackend,
        name: &str,
        keys: &Matrix,
        values: &Matrix,
        fingerprint: u64,
    ) -> Result<(Arc<PreparedMemory>, bool), AttentionError> {
        // Values with extra rows fingerprint like their prefix.
        validate_memory(keys, values)?;
        self.clock += 1;
        let inflation = self.inflation;
        if let Some(entry) = self
            .name_slot(name)
            .and_then(|slot| self.entries.get_mut(&(slot, fingerprint)))
        {
            entry.last_used = self.clock;
            entry.frequency = entry.frequency.saturating_add(1);
            entry.priority = inflation.saturating_add(entry.frequency.saturating_mul(entry.cost));
            self.hits += 1;
            return Ok((Arc::clone(&entry.memory), true));
        }
        let memory = Arc::new(backend.prepare(keys, values)?);
        self.misses += 1;
        if self.capacity == 0 {
            // Pass-through: serve the preparation without retaining it.
            return Ok((memory, false));
        }
        if self.entries.len() >= self.capacity {
            self.evict_one();
        }
        let cost = memory.preprocess_ops().max(1);
        let key = (self.intern(name), fingerprint);
        self.entries.insert(
            key,
            CacheEntry {
                memory: Arc::clone(&memory),
                last_used: self.clock,
                frequency: 1,
                cost,
                priority: self.inflation.saturating_add(cost),
            },
        );
        Ok((memory, false))
    }

    /// Removes and returns the entry for (`backend_name`, `fingerprint`), if
    /// resident.
    ///
    /// This is the first half of an **in-place cache update**: a streaming caller
    /// takes the entry out and drops it, mutates the prepared memory
    /// incrementally (so [`Arc::make_mut`] sees a unique reference and does not
    /// deep-clone), and re-inserts it under the memory's new fingerprint via
    /// [`MemoryCache::insert_updated`]. Neither half moves the hit/miss counters:
    /// an append is a cache *update*, not a lookup.
    ///
    /// On its own, `take` releases an entry no session needs the cache to keep,
    /// such as a shard a rebalance replaced. It allocates nothing and moves no
    /// counter.
    pub fn take(&mut self, backend_name: &str, fingerprint: u64) -> Option<Arc<PreparedMemory>> {
        let slot = self.name_slot(backend_name)?;
        self.entries
            .remove(&(slot, fingerprint))
            .map(|entry| entry.memory)
    }

    /// Re-inserts a prepared memory under its post-mutation fingerprint,
    /// counting it as an update rather than a miss.
    ///
    /// The entry becomes the most recently used. A pass-through cache
    /// (capacity 0) still counts the update but stores nothing. Only the
    /// first entry keyed by a backend name the cache has not seen copies the
    /// name.
    pub fn insert_updated(
        &mut self,
        backend_name: &str,
        fingerprint: u64,
        memory: Arc<PreparedMemory>,
    ) {
        self.updates += 1;
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        let key = (self.intern(backend_name), fingerprint);
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            self.evict_one();
        }
        let cost = memory.preprocess_ops().max(1);
        self.entries.insert(
            key,
            CacheEntry {
                memory,
                last_used: self.clock,
                frequency: 1,
                cost,
                priority: self.inflation.saturating_add(cost),
            },
        );
    }

    /// Mutates a prepared memory through `mutate` and moves its cache entry, if
    /// resident, from `old_fingerprint` to `new_fingerprint` (an update; no
    /// lookup counter moves).
    ///
    /// The cache's handle is dropped before [`Arc::make_mut`], so a memory no
    /// other session shares is mutated where it lives; a shared one is copied
    /// first and the other holders keep the old contents. On error the entry
    /// stays removed, so the cache never serves a half-mutated memory. The
    /// entry's move allocates nothing: `backend_name` is looked up, not
    /// copied.
    pub(crate) fn mutate_in_place<T>(
        &mut self,
        backend_name: &str,
        memory: &mut Arc<PreparedMemory>,
        (old_fingerprint, new_fingerprint): (u64, u64),
        mutate: impl FnOnce(&mut PreparedMemory) -> Result<T, AttentionError>,
    ) -> Result<T, AttentionError> {
        let resident = self.take(backend_name, old_fingerprint).is_some();
        let out = mutate(Arc::make_mut(memory))?;
        debug_assert_eq!(
            new_fingerprint,
            memory_fingerprint(memory.keys(), memory.values()),
            "delta fingerprint must match a from-scratch fingerprint"
        );
        if resident {
            self.insert_updated(backend_name, new_fingerprint, Arc::clone(memory));
        }
        Ok(out)
    }

    /// The slot of `name` in the name table, if an entry was ever keyed by it.
    fn name_slot(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|known| known == name)
    }

    /// The slot of `name`, adding it to the name table on first use.
    fn intern(&mut self, name: &str) -> usize {
        self.name_slot(name).unwrap_or_else(|| {
            self.names.push(name.to_owned());
            self.names.len() - 1
        })
    }

    /// Evicts one entry under the configured [`CacheAdmission`] policy. Both
    /// policies tie-break on `last_used` (unique per touch), so eviction is
    /// deterministic despite the hash map's iteration order.
    fn evict_one(&mut self) {
        let victim = match self.admission {
            CacheAdmission::Lru => self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, e)| (k, e.priority)),
            CacheAdmission::CostAware => self
                .entries
                .iter()
                .min_by_key(|(_, e)| (e.priority, e.last_used))
                .map(|(&k, e)| (k, e.priority)),
        };
        if let Some((key, priority)) = victim {
            self.entries.remove(&key);
            if self.admission == CacheAdmission::CostAware {
                // Greedy-dual aging: future admissions start at the evicted
                // priority, so resident entries must keep earning hits to stay.
                self.inflation = self.inflation.max(priority);
            }
        }
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that had to run the backend's preprocessing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of in-place entry updates ([`MemoryCache::insert_updated`]).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Number of prepared memories currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no prepared memory is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of resident prepared memories.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every resident entry and resets the hit/miss/update counters.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.clock = 0;
        self.inflation = 0;
        self.hits = 0;
        self.misses = 0;
        self.updates = 0;
    }
}

impl Default for MemoryCache {
    /// A cache sized for a typical serving working set (16 memories).
    fn default() -> Self {
        Self::new(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ApproximateBackend, ExactBackend, QuantizedBackend};

    fn memory(tag: f32) -> (Matrix, Matrix) {
        let rows: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..4).map(|j| tag + (i * 4 + j) as f32 * 0.01).collect())
            .collect();
        let keys = Matrix::from_rows(rows).unwrap();
        let values = keys.clone();
        (keys, values)
    }

    #[test]
    fn same_memory_hits_mutated_memory_misses() {
        let backend = ApproximateBackend::conservative();
        let (keys, values) = memory(0.0);
        let mut cache = MemoryCache::new(4);
        let (_, hit) = cache.get_or_prepare(&backend, &keys, &values).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_prepare(&backend, &keys, &values).unwrap();
        assert!(hit);
        let mut mutated = keys.clone();
        mutated.row_mut(0)[0] += 1.0;
        let (_, hit) = cache.get_or_prepare(&backend, &mutated, &values).unwrap();
        assert!(!hit, "mutated memory must not reuse stale preprocessing");
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn different_backends_do_not_share_entries() {
        let (keys, values) = memory(0.0);
        let mut cache = MemoryCache::new(4);
        cache.get_or_prepare(&ExactBackend, &keys, &values).unwrap();
        let (_, hit) = cache
            .get_or_prepare(&QuantizedBackend::paper(), &keys, &values)
            .unwrap();
        assert!(!hit, "a quantized lookup must not hit an exact entry");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let backend = ExactBackend;
        let mut cache = MemoryCache::new(2);
        let (k0, v0) = memory(0.0);
        let (k1, v1) = memory(1.0);
        let (k2, v2) = memory(2.0);
        cache.get_or_prepare(&backend, &k0, &v0).unwrap();
        cache.get_or_prepare(&backend, &k1, &v1).unwrap();
        // Touch k0 so k1 is the least recently used, then insert a third memory.
        cache.get_or_prepare(&backend, &k0, &v0).unwrap();
        cache.get_or_prepare(&backend, &k2, &v2).unwrap();
        assert_eq!(cache.len(), 2);
        let (_, hit) = cache.get_or_prepare(&backend, &k0, &v0).unwrap();
        assert!(hit, "recently used entry must survive eviction");
        let (_, hit) = cache.get_or_prepare(&backend, &k1, &v1).unwrap();
        assert!(!hit, "least recently used entry must have been evicted");
    }

    #[test]
    fn capacity_zero_is_a_pass_through_cache() {
        let (keys, values) = memory(0.0);
        let mut cache = MemoryCache::new(0);
        assert_eq!(cache.capacity(), 0);
        for _ in 0..3 {
            let (prepared, hit) = cache.get_or_prepare(&ExactBackend, &keys, &values).unwrap();
            assert!(!hit, "a pass-through cache never hits");
            assert_eq!(prepared.n(), keys.rows());
        }
        assert!(cache.is_empty(), "a pass-through cache never stores");
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
    }

    #[test]
    fn capacity_one_keeps_exactly_the_latest_memory() {
        let backend = ExactBackend;
        let mut cache = MemoryCache::new(1);
        let (k0, v0) = memory(0.0);
        let (k1, v1) = memory(1.0);
        cache.get_or_prepare(&backend, &k0, &v0).unwrap();
        let (_, hit) = cache.get_or_prepare(&backend, &k0, &v0).unwrap();
        assert!(hit, "capacity 1 must still cache one memory");
        cache.get_or_prepare(&backend, &k1, &v1).unwrap();
        assert_eq!(cache.len(), 1);
        let (_, hit) = cache.get_or_prepare(&backend, &k1, &v1).unwrap();
        assert!(hit, "the newest memory must be the resident one");
        let (_, hit) = cache.get_or_prepare(&backend, &k0, &v0).unwrap();
        assert!(!hit, "the displaced memory must have been evicted");
    }

    #[test]
    fn a_hit_refreshes_lru_position() {
        let backend = ExactBackend;
        let mut cache = MemoryCache::new(2);
        let (k0, v0) = memory(0.0);
        let (k1, v1) = memory(1.0);
        let (k2, v2) = memory(2.0);
        cache.get_or_prepare(&backend, &k0, &v0).unwrap();
        cache.get_or_prepare(&backend, &k1, &v1).unwrap();
        // Hitting k0 must make k1 the eviction victim, even though k1 was
        // inserted later.
        let (_, hit) = cache.get_or_prepare(&backend, &k0, &v0).unwrap();
        assert!(hit);
        cache.get_or_prepare(&backend, &k2, &v2).unwrap();
        let (_, hit) = cache.get_or_prepare(&backend, &k0, &v0).unwrap();
        assert!(hit, "the refreshed entry must survive");
        let (_, hit) = cache.get_or_prepare(&backend, &k1, &v1).unwrap();
        assert!(!hit, "the stale entry must have been evicted");
    }

    #[test]
    fn fingerprint_is_stable_across_allocations_of_identical_matrices() {
        use crate::backend::memory_fingerprint;
        let (keys, values) = memory(0.5);
        // Rebuild byte-identical matrices through a different construction path
        // (fresh allocations, row-by-row then flat).
        let rebuilt_keys =
            Matrix::from_rows(keys.iter_rows().map(<[f32]>::to_vec).collect::<Vec<_>>()).unwrap();
        let rebuilt_values =
            Matrix::from_flat(values.as_slice().to_vec(), values.rows(), values.dim()).unwrap();
        assert_eq!(
            memory_fingerprint(&keys, &values),
            memory_fingerprint(&rebuilt_keys, &rebuilt_values),
            "fingerprint must depend on content, not allocation"
        );
        let mut cache = MemoryCache::new(4);
        cache
            .get_or_prepare(&ApproximateBackend::conservative(), &keys, &values)
            .unwrap();
        let (_, hit) = cache
            .get_or_prepare(
                &ApproximateBackend::conservative(),
                &rebuilt_keys,
                &rebuilt_values,
            )
            .unwrap();
        assert!(hit, "an identical memory in a fresh allocation must hit");
    }

    #[test]
    fn preparation_errors_do_not_pollute_the_cache() {
        let (keys, _) = memory(0.0);
        let bad_values = Matrix::zeros(2, 4);
        let mut cache = MemoryCache::new(4);
        assert!(cache
            .get_or_prepare(&ExactBackend, &keys, &bad_values)
            .is_err());
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn values_with_extra_rows_are_rejected_before_the_lookup() {
        let (keys, values) = memory(0.0);
        let mut long_values = values.clone();
        long_values.append_rows(&memory(1.0).1).unwrap();
        let mut cache = MemoryCache::new(4);
        cache.get_or_prepare(&ExactBackend, &keys, &values).unwrap();
        // A fingerprint covers the rows keys and values share, so a lookup
        // alone would serve the resident preparation.
        assert_eq!(
            memory_fingerprint(&keys, &long_values),
            memory_fingerprint(&keys, &values)
        );
        assert!(matches!(
            cache.get_or_prepare(&ExactBackend, &keys, &long_values),
            Err(AttentionError::RowCountMismatch { .. })
        ));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_resets_counters_and_entries() {
        let (keys, values) = memory(0.0);
        let mut cache = MemoryCache::default();
        assert_eq!(cache.capacity(), 16);
        cache.get_or_prepare(&ExactBackend, &keys, &values).unwrap();
        cache.insert_updated(
            "exact",
            7,
            Arc::new(ExactBackend.prepare(&keys, &values).unwrap()),
        );
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses(), cache.updates()), (0, 0, 0));
    }

    #[test]
    fn take_and_insert_updated_move_an_entry_without_counting_lookups() {
        let backend = ExactBackend;
        let (keys, values) = memory(0.0);
        let mut cache = MemoryCache::new(4);
        let fingerprint = memory_fingerprint(&keys, &values);
        cache.get_or_prepare(&backend, &keys, &values).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let taken = cache.take(&backend.name(), fingerprint).expect("resident");
        assert!(cache.is_empty(), "take removes the entry");
        assert!(cache.take(&backend.name(), fingerprint).is_none());

        cache.insert_updated(&backend.name(), fingerprint + 1, taken);
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses(), cache.updates()), (0, 1, 1));

        // The re-inserted entry is found under the new fingerprint only.
        assert!(cache.take(&backend.name(), fingerprint).is_none());
        assert!(cache.take(&backend.name(), fingerprint + 1).is_some());
    }

    fn sized_memory(tag: f32, n: usize, d: usize) -> (Matrix, Matrix) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| tag + ((i * d + j) % 31) as f32 * 0.03)
                    .collect()
            })
            .collect();
        let keys = Matrix::from_rows(rows).unwrap();
        let values = keys.clone();
        (keys, values)
    }

    #[test]
    fn cost_aware_keeps_the_expensive_popular_entry_where_lru_drops_it() {
        // One expensive preparation (large sorted memory) that is touched often,
        // plus a stream of cheap one-off memories. LRU evicts the expensive
        // entry as soon as two cheap ones follow; cost-aware retains it.
        let backend = ApproximateBackend::conservative();
        let (big_k, big_v) = sized_memory(0.0, 64, 8);
        let cheap: Vec<(Matrix, Matrix)> =
            (0..3).map(|i| sized_memory(1.0 + i as f32, 4, 8)).collect();

        for admission in [CacheAdmission::Lru, CacheAdmission::CostAware] {
            let mut cache = MemoryCache::with_admission(2, admission);
            assert_eq!(cache.admission(), admission);
            cache.get_or_prepare(&backend, &big_k, &big_v).unwrap();
            // Three hits establish the entry's popularity.
            for _ in 0..3 {
                let (_, hit) = cache.get_or_prepare(&backend, &big_k, &big_v).unwrap();
                assert!(hit);
            }
            for (k, v) in &cheap {
                cache.get_or_prepare(&backend, k, v).unwrap();
            }
            let (_, hit) = cache.get_or_prepare(&backend, &big_k, &big_v).unwrap();
            match admission {
                CacheAdmission::Lru => assert!(
                    !hit,
                    "LRU must have evicted the expensive entry behind the cheap stream"
                ),
                CacheAdmission::CostAware => assert!(
                    hit,
                    "cost-aware admission must retain the expensive popular entry"
                ),
            }
        }
    }

    #[test]
    fn cost_aware_inflation_ages_out_stale_expensive_entries() {
        // Greedy-dual aging: an expensive entry that stops earning hits must
        // eventually yield to a cheap entry that keeps getting referenced.
        let backend = ApproximateBackend::conservative();
        let (big_k, big_v) = sized_memory(0.0, 64, 8);
        let (warm_k, warm_v) = sized_memory(9.0, 4, 8);
        let mut cache = MemoryCache::with_admission(1, CacheAdmission::CostAware);
        cache.get_or_prepare(&backend, &big_k, &big_v).unwrap();
        // The cheap memory misses, evicting big (the only entry) and raising L
        // to big's priority; from then on big has no seniority advantage.
        cache.get_or_prepare(&backend, &warm_k, &warm_v).unwrap();
        let (_, hit) = cache.get_or_prepare(&backend, &warm_k, &warm_v).unwrap();
        assert!(hit, "after aging, the cheap busy entry must be resident");
    }

    #[test]
    fn default_admission_is_lru() {
        assert_eq!(MemoryCache::new(4).admission(), CacheAdmission::Lru);
        assert_eq!(MemoryCache::default().admission(), CacheAdmission::Lru);
    }

    #[test]
    fn insert_updated_respects_capacity_and_pass_through() {
        let backend = ExactBackend;
        let (k0, v0) = memory(0.0);
        let (k1, v1) = memory(1.0);
        let mut cache = MemoryCache::new(1);
        cache.get_or_prepare(&backend, &k0, &v0).unwrap();
        let fresh = Arc::new(backend.prepare(&k1, &v1).unwrap());
        cache.insert_updated(&backend.name(), 42, fresh);
        assert_eq!(cache.len(), 1, "insert_updated must evict to stay bounded");
        assert!(cache.take(&backend.name(), 42).is_some());

        let mut pass_through = MemoryCache::new(0);
        let fresh = Arc::new(backend.prepare(&k1, &v1).unwrap());
        pass_through.insert_updated(&backend.name(), 42, fresh);
        assert!(
            pass_through.is_empty(),
            "a pass-through cache stores nothing"
        );
        assert_eq!(pass_through.updates(), 1);
    }
}
