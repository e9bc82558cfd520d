//! Request-oriented serving front-end: tenants, sessions, dynamic batching,
//! deadline-aware weighted-fair scheduling.
//!
//! The [`backend`](crate::backend) layer amortizes A3's query-independent
//! preprocessing across *pre-assembled* batches — but production attention serving is
//! request-driven: queries arrive one at a time, for many memories, from many traffic
//! classes, and the system must form the batches itself (the regime where
//! approximation accelerators pay off, paper Section IV-C). This module organizes the
//! public serving surface around three nested concepts:
//!
//! * **Tenants** ([`TenantId`]) are isolation domains — products, customers, traffic
//!   classes. Each carries a [`TenantConfig`]: a [`Priority`] class that maps to a
//!   weighted-fair-queueing weight, and an optional [`RateLimit`] enforced by an
//!   exact integer token bucket at submission time. The default tenant always
//!   exists, so single-tenant callers never touch this layer.
//! * **Sessions** ([`SessionId`]) are registered memories.
//!   [`AttentionServer::register`] takes a [`MemoryConfig`] (keys/values, optional
//!   row-sharding, owning tenant), runs the backend's preprocessing through an
//!   LRU [`MemoryCache`] — so re-registering a known memory is free — and
//!   issues an id. The [`SessionHandle`] owns the [`PreparedMemory`] for the
//!   session's lifetime, like the accelerator's resident SRAM copies.
//! * **Requests** ([`Request`]) are single queries tagged with a session, an arrival
//!   tick and an optional deadline, accepted by [`AttentionServer::submit`] (after
//!   the tenant's token bucket admits them) and batched per session — flushing
//!   when a batch fills ([`BatchPolicy::max_batch`]), when the batch window expires
//!   ([`BatchPolicy::batch_window`]), or when a queued deadline would otherwise be
//!   missed. When several tenants hold due batches, flush order is weighted-fair
//!   across tenant lanes, so high-priority batches drain first without starving
//!   background traffic.
//!
//! [`AttentionServer::poll`] executes every due batch through the server's
//! [`ComputeBackend`] via the prepared batch path, on the caller's thread. Results
//! are **bit-identical** to calling [`ComputeBackend::attend_prepared`] once per
//! query: batching, admission and fairness are pure scheduling decisions, never
//! numerics decisions.
//!
//! A request pays for its results only. A whole session's batch runs through
//! [`ComputeBackend::attend_batch_owned`], which takes over the requests' query
//! buffers: the built-in exact, SIMD and quantized backends write each
//! response's output into its own query's buffer. A submission finds its
//! queue, and its tenant's lane and counters, by the indices the server
//! issued, with no search and no map lookup. The queues and the server's
//! per-batch lists keep their buffers between polls, so a warm poll allocates
//! only its batch list, each batch's response list and what the backend
//! allocates for its results. [`AttentionServer::next_due`] and each poll still
//! scan every session's queue, idle ones included.
//!
//! Time is a logical [`Tick`] counter supplied by the caller, which makes every
//! schedule deterministic and lets `a3-sim`'s discrete-event model drive this
//! server with ticks interpreted as accelerator clock cycles.
//!
//! ```
//! use a3_core::backend::ApproximateBackend;
//! use a3_core::serve::{AttentionServer, BatchPolicy, MemoryConfig, Request};
//! use a3_core::Matrix;
//!
//! let keys = Matrix::from_rows(vec![vec![1.0, 0.0], vec![-1.0, 0.5], vec![0.9, 0.1]]).unwrap();
//! let mut server = AttentionServer::builder(Box::new(ApproximateBackend::conservative()))
//!     .batch_policy(BatchPolicy::new(2, 100).unwrap())
//!     .build();
//! let session = server.register(MemoryConfig::new(&keys, &keys)).unwrap();
//!
//! // Two requests fill a batch; the second submission makes it due immediately.
//! server.submit(Request::new(session, vec![1.0, 0.0], 10)).unwrap();
//! server.submit(Request::new(session, vec![0.5, 0.5], 30).with_deadline(500)).unwrap();
//! let completed = server.poll(30).unwrap();
//! assert_eq!(completed.len(), 1);
//! assert_eq!(completed[0].responses.len(), 2);
//! assert!(!completed[0].responses[1].missed_deadline());
//! ```

mod config;
mod scheduler;
mod tenant;

pub use config::{MemoryConfig, ServerBuilder};
pub use scheduler::{BatchPolicy, FlushReason};
pub use tenant::{Priority, RateLimit, TenantConfig, TenantId, TenantStats};

use scheduler::{BatchHead, QueuedRequest, Scheduler};
use tenant::TokenBucket;

use std::fmt;
use std::sync::Arc;

use crate::attention::AttentionResult;
use crate::backend::{
    fingerprint_append, fingerprint_update, memory_fingerprint, validate_append,
    validate_row_width, ComputeBackend, MemoryCache, PreparedMemory, ShardPlan, ShardedMemory,
};
use crate::{AttentionError, Matrix, ServeError};

/// Logical time unit of the serving layer. The server never reads a wall clock: the
/// caller supplies ticks (the simulator interprets them as accelerator cycles).
pub type Tick = u64;

/// Identifies one registered key/value memory (one serving session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// Builds a session id from its raw value. Intended for trace tooling and the
    /// simulator; within one server, only ids issued by
    /// [`AttentionServer::register`] resolve.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The id's index in a server's session table. `try_from`, not `as`: a
    /// raw id past `usize::MAX` must not wrap onto a live session on a 32-bit
    /// target.
    fn slot(self) -> Option<usize> {
        usize::try_from(self.0).ok()
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifies one submitted request within a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Builds a request id from its raw value (trace tooling / simulator use).
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One single-query attention request against a registered session.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The session (registered memory) to attend over.
    pub session: SessionId,
    /// The query vector (must match the session memory's dimension).
    pub query: Vec<f32>,
    /// Tick at which the request enters the system.
    pub arrival: Tick,
    /// Optional absolute completion deadline. The scheduler flushes a batch early
    /// rather than let a queued deadline lapse, and responses record whether they
    /// still completed late.
    pub deadline: Option<Tick>,
}

impl Request {
    /// Creates a request with no deadline.
    pub fn new(session: SessionId, query: Vec<f32>, arrival: Tick) -> Self {
        Self {
            session,
            query,
            arrival,
            deadline: None,
        }
    }

    /// Attaches an absolute deadline tick.
    pub fn with_deadline(mut self, deadline: Tick) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The prepared state a session serves from: one whole prepared memory (the
/// unsharded fast path) or a row-sharded memory whose per-shard partials merge at
/// batch-execution time.
#[derive(Debug, Clone)]
pub enum SessionMemory {
    /// One whole [`PreparedMemory`]; batches run through
    /// [`ComputeBackend::attend_batch_prepared`].
    Whole(Arc<PreparedMemory>),
    /// A row-sharded memory; batches run through
    /// [`ComputeBackend::attend_batch_sharded`] (per-shard partials + cross-shard
    /// merge).
    Sharded(Arc<ShardedMemory>),
}

impl SessionMemory {
    /// Embedding dimension (`d`).
    pub fn d(&self) -> usize {
        match self {
            SessionMemory::Whole(m) => m.d(),
            SessionMemory::Sharded(s) => s.d(),
        }
    }

    /// Number of logical memory rows (`n`).
    pub fn n(&self) -> usize {
        match self {
            SessionMemory::Whole(m) => m.n(),
            SessionMemory::Sharded(s) => s.n(),
        }
    }

    /// Number of shards serving this memory (1 for a whole memory).
    pub fn shard_count(&self) -> usize {
        match self {
            SessionMemory::Whole(_) => 1,
            SessionMemory::Sharded(s) => s.shard_count(),
        }
    }

    /// The whole prepared memory, if this session is unsharded.
    pub fn whole(&self) -> Option<&PreparedMemory> {
        match self {
            SessionMemory::Whole(m) => Some(m),
            SessionMemory::Sharded(_) => None,
        }
    }

    /// The sharded memory, if this session is sharded.
    pub fn sharded(&self) -> Option<&ShardedMemory> {
        match self {
            SessionMemory::Whole(_) => None,
            SessionMemory::Sharded(s) => Some(s),
        }
    }
}

/// A registered memory: the session id, the owning tenant, plus the backend's
/// preprocessing of the key/value matrices (whole or sharded), held for the
/// session's lifetime.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    id: SessionId,
    tenant: TenantId,
    /// The tenant's index in the server's tenant table (its scheduler lane).
    tenant_slot: usize,
    memory: SessionMemory,
    fingerprint: u64,
    reused_preparation: bool,
}

impl SessionHandle {
    /// The session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The tenant this session belongs to ([`TenantId::DEFAULT`] unless the
    /// registration's [`MemoryConfig::tenant`] said otherwise).
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The prepared state serving this session.
    pub fn memory(&self) -> &SessionMemory {
        &self.memory
    }

    /// Number of shards serving this session (1 for a whole memory).
    pub fn shard_count(&self) -> usize {
        self.memory.shard_count()
    }

    /// Content fingerprint of the registered (keys, values) memory (the whole logical
    /// memory, even when it is served sharded).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// True when registration hit the server's [`MemoryCache`] for every prepared
    /// piece and therefore ran no preprocessing.
    pub fn reused_preparation(&self) -> bool {
        self.reused_preparation
    }
}

/// Outcome of one in-place session mutation ([`AttentionServer::append_to_session`]
/// or [`AttentionServer::update_session_row`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionMutation {
    /// Incremental maintenance operations the backend charged (comparisons, moves,
    /// element re-quantizations). Zero when the backend fell back to a full
    /// re-prepare.
    pub incremental_ops: u64,
    /// Number of prepared memories rebuilt from scratch (0 on the incremental path).
    pub full_reprepares: u64,
    /// True when the append re-split a sharded session's shards.
    pub rebalanced: bool,
    /// The session's new content fingerprint (maintained as a delta, identical to a
    /// from-scratch fingerprint of the mutated memory).
    pub fingerprint: u64,
}

/// One completed request: the attention result plus its scheduling history.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id issued by [`AttentionServer::submit`].
    pub request: RequestId,
    /// The session the request ran against.
    pub session: SessionId,
    /// Tick at which the request entered the system.
    pub arrival: Tick,
    /// The request's deadline, if it carried one.
    pub deadline: Option<Tick>,
    /// Tick at which the result became available (the poll/flush tick).
    pub completed_at: Tick,
    /// The attention output — bit-identical to a direct
    /// [`ComputeBackend::attend_prepared`] call with the same query. Its
    /// `output` may occupy the buffer the request's query arrived in.
    pub result: AttentionResult,
}

impl Response {
    /// Ticks the request spent in the system (batching wait included).
    pub fn waited(&self) -> Tick {
        self.completed_at.saturating_sub(self.arrival)
    }

    /// True when the request carried a deadline and completed after it.
    pub fn missed_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| self.completed_at > d)
    }
}

/// One executed batch: which session ran, why it flushed, and every response.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedBatch {
    /// The session the batch ran against.
    pub session: SessionId,
    /// Tick at which the scheduler declared the batch due.
    pub formed_at: Tick,
    /// The trigger that flushed it.
    pub reason: FlushReason,
    /// Responses in request-arrival order.
    pub responses: Vec<Response>,
}

/// Lifetime counters of one [`AttentionServer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests accepted by [`AttentionServer::submit`].
    pub submitted: u64,
    /// Requests rejected by a tenant's token-bucket admission control.
    pub throttled: u64,
    /// Requests completed (responses returned).
    pub completed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Completed requests that missed their deadline.
    pub deadline_misses: u64,
    /// Largest per-session queue depth ever observed.
    pub max_queue_depth: usize,
}

impl ServerStats {
    /// Mean number of requests per executed batch (0 before the first batch).
    pub fn avg_batch_fill(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }
}

/// One tenant's runtime state: configuration, its live token bucket, and
/// lifetime counters.
#[derive(Debug, Clone)]
struct TenantRuntime {
    id: TenantId,
    config: TenantConfig,
    bucket: Option<TokenBucket>,
    stats: TenantStats,
}

/// Buffers a poll reuses across batches and polls. Each holds at most the
/// largest poll's worth of requests, so a warm server allocates per batch only
/// the responses it returns. Each pop replaces the lists' contents.
#[derive(Debug, Default)]
struct Scratch {
    /// One head per popped batch, in execution order.
    heads: Vec<BatchHead>,
    /// Every popped request, batch after batch; a run batch's requests have
    /// handed their queries to the backend.
    requests: Vec<QueuedRequest>,
    /// One batch's queries, handed to the backend.
    queries: Vec<Vec<f32>>,
    /// One batch's results.
    results: Vec<AttentionResult>,
}

/// A request-oriented attention server: tenants, registered memories,
/// weighted-fair dynamic batching, and one [`ComputeBackend`] executing the
/// batches it forms on the caller's thread.
///
/// Construct via [`AttentionServer::builder`]. See the
/// [module documentation](self) for the full request flow.
pub struct AttentionServer {
    backend: Box<dyn ComputeBackend>,
    /// `backend.name()`, formatted once: every cached mutation keys by it.
    backend_name: String,
    cache: MemoryCache,
    /// Every registered session, indexed by its raw id: [`Self::register`]
    /// issues ids densely from 0.
    sessions: Vec<SessionHandle>,
    /// Every registered tenant, at the index of its scheduler lane; a session
    /// stores its tenant's index. Only [`Self::register_tenant`] starts a
    /// lane (the default tenant's first), so the two tables stay aligned.
    tenants: Vec<TenantRuntime>,
    scheduler: Scheduler,
    next_request: u64,
    stats: ServerStats,
    scratch: Scratch,
}

impl fmt::Debug for AttentionServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AttentionServer")
            .field("backend", &self.backend_name)
            .field("policy", &self.scheduler.policy())
            .field("tenants", &self.tenants.len())
            .field("sessions", &self.sessions.len())
            .field("pending", &self.scheduler.pending())
            .field("stats", &self.stats)
            .finish()
    }
}

impl AttentionServer {
    /// Starts building a server around `backend`. All other knobs (batch policy,
    /// cache capacity, tenants) have defaults — see [`ServerBuilder`].
    pub fn builder(backend: Box<dyn ComputeBackend>) -> ServerBuilder {
        ServerBuilder::new(backend)
    }

    /// Assembles a server from already-built parts ([`ServerBuilder::build`]'s
    /// back half). The default tenant is registered before the server is handed
    /// out, so it always exists.
    pub(crate) fn from_parts(
        backend: Box<dyn ComputeBackend>,
        policy: BatchPolicy,
        cache: MemoryCache,
    ) -> Self {
        let mut server = Self {
            backend_name: backend.name(),
            backend,
            cache,
            sessions: Vec::new(),
            tenants: Vec::new(),
            scheduler: Scheduler::new(policy),
            next_request: 0,
            stats: ServerStats::default(),
            scratch: Scratch::default(),
        };
        server.register_tenant(TenantId::DEFAULT, TenantConfig::default());
        server
    }

    /// The backend executing this server's batches.
    pub fn backend(&self) -> &dyn ComputeBackend {
        self.backend.as_ref()
    }

    /// The batching policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.scheduler.policy()
    }

    /// The preprocessing cache (hit/miss counters included).
    pub fn cache(&self) -> &MemoryCache {
        &self.cache
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Registers (or reconfigures) a tenant: its priority class feeds the
    /// scheduler's weighted-fair lane, its optional rate limit arms a token
    /// bucket that admits or throttles every future submission for the tenant's
    /// sessions. Reconfiguring an existing tenant resets its bucket but keeps
    /// its lifetime counters.
    pub fn register_tenant(&mut self, id: TenantId, config: TenantConfig) {
        let slot = self
            .scheduler
            .set_tenant_weight(id, config.priority().weight());
        let bucket = config.rate_limit().map(|limit| TokenBucket::new(limit, 0));
        match self.tenants.get_mut(slot) {
            Some(runtime) => {
                runtime.config = config;
                runtime.bucket = bucket;
            }
            None => self.tenants.push(TenantRuntime {
                id,
                config,
                bucket,
                stats: TenantStats::default(),
            }),
        }
    }

    /// A registered tenant's index in the tenant table.
    fn tenant(&self, id: TenantId) -> Option<usize> {
        self.scheduler
            .lane(id)
            .filter(|&slot| slot < self.tenants.len())
    }

    /// A tenant's configuration, if registered.
    pub fn tenant_config(&self, id: TenantId) -> Option<TenantConfig> {
        let runtime = self.tenants.get(self.tenant(id)?)?;
        Some(runtime.config)
    }

    /// A tenant's lifetime admission/completion counters, if registered.
    pub fn tenant_stats(&self, id: TenantId) -> Option<TenantStats> {
        let runtime = self.tenants.get(self.tenant(id)?)?;
        Some(runtime.stats)
    }

    /// Iterates over every registered tenant in id order.
    pub fn tenants(&self) -> impl Iterator<Item = (TenantId, TenantConfig)> + '_ {
        self.scheduler
            .lanes_by_tenant()
            .filter_map(|slot| self.tenants.get(slot))
            .map(|runtime| (runtime.id, runtime.config))
    }

    /// Registers a memory described by `config` and opens a session serving it:
    /// the backend's query-independent preprocessing runs over the key/value
    /// matrices — through the server's [`MemoryCache`], so a memory with a known
    /// fingerprint reuses its preparation — either whole or split row-wise across
    /// [`MemoryConfig::sharded`] shards (each shard cached under its own
    /// fingerprint, batches execute per shard and merge, bit-identical to direct
    /// [`ComputeBackend::attend_sharded`] calls). Session ids are issued densely
    /// from 0, in the order of the calls that succeed.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownTenant`] if [`MemoryConfig::tenant`] named a tenant
    ///   that was never registered.
    /// * [`ServeError::Attention`] if the key/value shapes are inconsistent, the
    ///   shard count is zero, or the backend rejects its own configuration (an
    ///   approximate backend's post-scoring threshold outside (0, 100]).
    pub fn register(&mut self, config: MemoryConfig<'_>) -> Result<SessionId, ServeError> {
        let tenant = config.tenant_id();
        let tenant_slot = self.tenant(tenant).ok_or(ServeError::UnknownTenant {
            tenant: tenant.raw(),
        })?;
        let keys = config.keys();
        let values = config.values();
        let backend = self.backend.as_ref();
        let (memory, fingerprint, reused_preparation) = if config.shard_request() == 1 {
            let fingerprint = memory_fingerprint(keys, values);
            let (memory, hit) = self.cache.get_or_prepare_named(
                backend,
                &self.backend_name,
                keys,
                values,
                fingerprint,
            )?;
            (SessionMemory::Whole(memory), fingerprint, hit)
        } else {
            let plan = ShardPlan::new(config.shard_request())?;
            let (sharded, stats) = ShardedMemory::prepare_named(
                backend,
                &self.backend_name,
                plan,
                &mut self.cache,
                keys,
                values,
            )?;
            let fingerprint = sharded.fingerprint();
            let memory = SessionMemory::Sharded(Arc::new(sharded));
            (memory, fingerprint, stats.misses == 0)
        };
        let id = SessionId(self.sessions.len() as u64);
        self.scheduler.assign_session(id, tenant);
        self.sessions.push(SessionHandle {
            id,
            tenant,
            tenant_slot,
            memory,
            fingerprint,
            reused_preparation,
        });
        Ok(id)
    }

    /// Appends rows to a live session's memory **in place**, through the backend's
    /// incremental [`ComputeBackend::append_rows`] — no full re-sort/re-quantization
    /// on the fast path — and keeps the server's [`MemoryCache`] entry current via a
    /// delta fingerprint (a cache *update*, never a miss). The streaming analogue of
    /// a decode step extending the attended context by one token.
    ///
    /// The mutated session serves exactly what re-registering the concatenated
    /// memory would: bit-identical for the exact and quantized datapaths,
    /// result-equivalent for the approximate datapath. Appending zero rows of
    /// the session's width changes nothing, the cache included.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownSession`] if the session was never registered.
    /// * [`ServeError::Attention`] if the new rows' shapes are inconsistent with the
    ///   session memory, or the backend's append (or fallback re-prepare) fails.
    pub fn append_to_session(
        &mut self,
        id: SessionId,
        new_keys: &Matrix,
        new_values: &Matrix,
    ) -> Result<SessionMutation, ServeError> {
        let handle = id
            .slot()
            .and_then(|slot| self.sessions.get_mut(slot))
            .ok_or(ServeError::UnknownSession { session: id.raw() })?;
        let old_fingerprint = handle.fingerprint;
        let old_n = handle.memory.n();
        let d = handle.memory.d();
        // Shape errors are caught before a cache entry is taken out, so a
        // rejected append leaves it resident. An empty append is a no-op on
        // both session shapes: no cache update, the same prepared memory.
        validate_append(d, new_keys, new_values)?;
        if new_keys.rows() == 0 {
            return Ok(SessionMutation {
                incremental_ops: 0,
                full_reprepares: 0,
                rebalanced: false,
                fingerprint: old_fingerprint,
            });
        }
        let mutation = match &mut handle.memory {
            SessionMemory::Whole(memory) => {
                let new_fingerprint =
                    fingerprint_append(old_fingerprint, old_n, d, new_keys, new_values);
                let backend = self.backend.as_ref();
                let stats = self.cache.mutate_in_place(
                    &self.backend_name,
                    memory,
                    (old_fingerprint, new_fingerprint),
                    |prepared| backend.append_rows(prepared, new_keys, new_values),
                )?;
                SessionMutation {
                    incremental_ops: stats.incremental_ops,
                    full_reprepares: u64::from(stats.full_reprepare),
                    rebalanced: false,
                    fingerprint: new_fingerprint,
                }
            }
            SessionMemory::Sharded(sharded) => {
                // The shard's row hashes give the session's fingerprint.
                let sharded = Arc::make_mut(sharded);
                let stats = sharded.append_rows_named(
                    self.backend.as_ref(),
                    &self.backend_name,
                    &mut self.cache,
                    new_keys,
                    new_values,
                )?;
                SessionMutation {
                    incremental_ops: stats.incremental_ops,
                    full_reprepares: stats.full_reprepares,
                    rebalanced: stats.rebalanced,
                    fingerprint: sharded.fingerprint(),
                }
            }
        };
        handle.fingerprint = mutation.fingerprint;
        Ok(mutation)
    }

    /// Overwrites one row of a live session's memory **in place**, through the
    /// backend's incremental [`ComputeBackend::update_row`], keeping the cache
    /// entry current via a delta fingerprint. See
    /// [`AttentionServer::append_to_session`] for the equivalence contract.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownSession`] if the session was never registered.
    /// * [`ServeError::Attention`] if `row` is out of range, the key/value
    ///   dimensions are inconsistent, or the backend's update fails.
    pub fn update_session_row(
        &mut self,
        id: SessionId,
        row: usize,
        key: &[f32],
        value: &[f32],
    ) -> Result<SessionMutation, ServeError> {
        let handle = id
            .slot()
            .and_then(|slot| self.sessions.get_mut(slot))
            .ok_or(ServeError::UnknownSession { session: id.raw() })?;
        if row >= handle.memory.n() {
            return Err(ServeError::Attention(AttentionError::InvalidParameter {
                name: "row",
                constraint: "row index must be within the memory",
            }));
        }
        // Checked before the cache entry is taken out, so a rejected update
        // leaves it resident.
        validate_row_width(handle.memory.d(), key, value)?;
        let backend = self.backend.as_ref();
        let (incremental_ops, full_reprepares, fingerprint) = match &mut handle.memory {
            SessionMemory::Whole(memory) => {
                // Hashed while the memory still holds the old row.
                let fingerprint = fingerprint_update(
                    handle.fingerprint,
                    row,
                    memory.keys().row(row),
                    memory.values().row(row),
                    key,
                    value,
                );
                let stats = self.cache.mutate_in_place(
                    &self.backend_name,
                    memory,
                    (handle.fingerprint, fingerprint),
                    |prepared| backend.update_row(prepared, row, key, value),
                )?;
                let full_reprepares = u64::from(stats.full_reprepare);
                (stats.incremental_ops, full_reprepares, fingerprint)
            }
            SessionMemory::Sharded(sharded) => {
                let sharded = Arc::make_mut(sharded);
                let stats = sharded.update_row_named(
                    backend,
                    &self.backend_name,
                    &mut self.cache,
                    row,
                    key,
                    value,
                )?;
                let fingerprint = sharded.fingerprint();
                (stats.incremental_ops, stats.full_reprepares, fingerprint)
            }
        };
        handle.fingerprint = fingerprint;
        Ok(SessionMutation {
            incremental_ops,
            full_reprepares,
            rebalanced: false,
            fingerprint,
        })
    }

    /// The handle of a registered session.
    pub fn session(&self, id: SessionId) -> Option<&SessionHandle> {
        self.sessions.get(id.slot()?)
    }

    /// Iterates over every registered session, in id order.
    pub fn sessions(&self) -> impl Iterator<Item = &SessionHandle> {
        self.sessions.iter()
    }

    /// Accepts a request into its session's queue and returns the id its response
    /// will carry. Request ids are issued densely from 0 in call order, to
    /// admitted requests only. The request is *not* executed yet — call
    /// [`AttentionServer::poll`] with the current tick to run due batches.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownSession`] if the session was never registered.
    /// * [`ServeError::Attention`] if the query dimension does not match the
    ///   session's memory (rejected at submission, before it can poison a batch
    ///   — and before it can consume admission tokens).
    /// * [`ServeError::Throttled`] if the session's tenant is over its admission
    ///   rate (the request is dropped at the door, it never queues).
    pub fn submit(&mut self, request: Request) -> Result<RequestId, ServeError> {
        let session = self
            .session(request.session)
            .ok_or(ServeError::UnknownSession {
                session: request.session.raw(),
            })?;
        if request.query.len() != session.memory.d() {
            return Err(ServeError::Attention(AttentionError::DimensionMismatch {
                expected: session.memory.d(),
                actual: request.query.len(),
            }));
        }
        let (tenant, tenant_slot) = (session.tenant, session.tenant_slot);
        if let Some(runtime) = self.tenants.get_mut(tenant_slot) {
            runtime.stats.offered += 1;
            if let Some(bucket) = runtime.bucket.as_mut() {
                if !bucket.try_admit(request.arrival) {
                    runtime.stats.throttled += 1;
                    self.stats.throttled += 1;
                    return Err(ServeError::Throttled {
                        tenant: tenant.raw(),
                    });
                }
            }
            runtime.stats.admitted += 1;
        }
        let id = RequestId(self.next_request);
        self.next_request += 1;
        let depth = self.scheduler.enqueue(QueuedRequest {
            id,
            session: request.session,
            query: request.query,
            arrival: request.arrival,
            deadline: request.deadline,
        });
        self.stats.submitted += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
        Ok(id)
    }

    /// Total number of queued (unexecuted) requests.
    pub fn pending(&self) -> usize {
        self.scheduler.pending()
    }

    /// Number of queued requests for one session.
    pub fn queue_depth(&self, session: SessionId) -> usize {
        self.scheduler.queue_depth(session)
    }

    /// The earliest tick at which a queued batch becomes due, or `None` when idle.
    pub fn next_due(&self) -> Option<Tick> {
        self.scheduler.next_due()
    }

    /// Executes every batch that is due at or before `now` and returns the completed
    /// batches in weighted-fair (tenant virtual time, tenant id, session id) order.
    /// An idle server returns an empty vector.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Attention`] if the backend rejects a batch (cannot
    /// happen for requests validated by [`AttentionServer::submit`] against a live
    /// session).
    pub fn poll(&mut self, now: Tick) -> Result<Vec<CompletedBatch>, ServeError> {
        let Scratch {
            heads, requests, ..
        } = &mut self.scratch;
        self.scheduler.pop_due_into(now, heads, requests);
        self.execute(now)
    }

    /// Force-flushes every queued request regardless of due times (e.g. at
    /// shutdown). The empty-batch flush is legal: an idle server returns an empty
    /// vector.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Attention`] if the backend rejects a batch.
    pub fn flush_all(&mut self, now: Tick) -> Result<Vec<CompletedBatch>, ServeError> {
        let Scratch {
            heads, requests, ..
        } = &mut self.scratch;
        self.scheduler.pop_all_into(now, heads, requests);
        self.execute(now)
    }

    /// Runs the batches just popped into the scratch lists through the
    /// backend. A whole session's batch goes through
    /// [`ComputeBackend::attend_batch_owned`], so each response's output may
    /// take over its request's query buffer; a sharded one through
    /// [`ComputeBackend::attend_batch_sharded`]. Results are bit-identical to
    /// per-query [`ComputeBackend::attend_prepared`] (or `attend_sharded`)
    /// calls in arrival order (the backend contract).
    fn execute(&mut self, now: Tick) -> Result<Vec<CompletedBatch>, ServeError> {
        let Self {
            backend,
            sessions,
            tenants,
            stats,
            scratch,
            ..
        } = self;
        let Scratch {
            heads,
            requests,
            queries,
            results,
        } = scratch;
        let mut completed = Vec::with_capacity(heads.len());
        let mut rest = requests.as_mut_slice();
        for head in heads.iter() {
            let len = head.len.min(rest.len());
            let (batch, after) = std::mem::take(&mut rest).split_at_mut(len);
            rest = after;
            // A batch that failed left its queries or results behind.
            queries.clear();
            results.clear();
            queries.extend(
                batch
                    .iter_mut()
                    .map(|request| std::mem::take(&mut request.query)),
            );
            let session = head
                .session
                .slot()
                .and_then(|slot| sessions.get(slot))
                .ok_or(ServeError::UnknownSession {
                    session: head.session.raw(),
                })?;
            match &session.memory {
                SessionMemory::Whole(memory) => {
                    backend.attend_batch_owned(memory, queries, results)?;
                }
                // Sharded session: every query runs on every shard and the
                // per-shard partials merge.
                SessionMemory::Sharded(sharded) => {
                    let borrowed: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
                    results.extend(backend.attend_batch_sharded(sharded, &borrowed)?);
                }
            }
            let responses: Vec<Response> = batch
                .iter()
                .zip(results.drain(..))
                .map(|(request, result)| Response {
                    request: request.id,
                    session: request.session,
                    arrival: request.arrival,
                    deadline: request.deadline,
                    completed_at: now,
                    result,
                })
                .collect();
            let misses = responses.iter().filter(|r| r.missed_deadline()).count() as u64;
            stats.batches += 1;
            stats.completed += responses.len() as u64;
            stats.deadline_misses += misses;
            if let Some(runtime) = tenants.get_mut(session.tenant_slot) {
                runtime.stats.completed += responses.len() as u64;
                runtime.stats.deadline_misses += misses;
            }
            completed.push(CompletedBatch {
                session: head.session,
                formed_at: head.formed_at,
                reason: head.reason,
                responses,
            });
        }
        Ok(completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ApproximateBackend, ExactBackend, QuantizedBackend, SimdBackend};

    fn memory(tag: f32, n: usize, d: usize) -> (Matrix, Matrix) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| tag + (((i * 13 + j * 7) % 29) as f32 - 14.0) / 14.0)
                    .collect()
            })
            .collect();
        let keys = Matrix::from_rows(rows).unwrap();
        let values = keys.clone();
        (keys, values)
    }

    fn query(d: usize, salt: f32) -> Vec<f32> {
        (0..d)
            .map(|j| salt + ((j % 5) as f32 - 2.0) / 2.0)
            .collect()
    }

    fn all_backends() -> Vec<Box<dyn ComputeBackend>> {
        vec![
            Box::new(ExactBackend),
            Box::new(SimdBackend::new()),
            Box::new(ApproximateBackend::conservative()),
            Box::new(QuantizedBackend::paper()),
        ]
    }

    fn server_with(backend: Box<dyn ComputeBackend>, policy: BatchPolicy) -> AttentionServer {
        AttentionServer::builder(backend)
            .batch_policy(policy)
            .build()
    }

    #[test]
    fn server_results_are_bit_identical_to_direct_prepared_calls() {
        for backend in all_backends() {
            let name = backend.name();
            let (keys, values) = memory(0.0, 12, 6);
            let reference = backend.prepare(&keys, &values).unwrap();
            let mut server = server_with(backend, BatchPolicy::new(3, 50).unwrap());
            let session = server.register(MemoryConfig::new(&keys, &values)).unwrap();
            let queries: Vec<Vec<f32>> = (0..5).map(|i| query(6, 0.1 * i as f32)).collect();
            for (i, q) in queries.iter().enumerate() {
                server
                    .submit(Request::new(session, q.clone(), i as Tick * 10))
                    .unwrap();
            }
            let mut responses: Vec<Response> = Vec::new();
            for batch in server.poll(100).unwrap() {
                responses.extend(batch.responses);
            }
            for batch in server.flush_all(200).unwrap() {
                responses.extend(batch.responses);
            }
            assert_eq!(responses.len(), queries.len(), "{name}");
            responses.sort_by_key(|r| r.request);
            for (q, response) in queries.iter().zip(&responses) {
                let direct = server.backend().attend_prepared(&reference, q).unwrap();
                assert_eq!(response.result, direct, "{name}");
            }
        }
    }

    #[test]
    fn unknown_session_and_bad_dimension_are_rejected_at_submit() {
        let (keys, values) = memory(0.0, 8, 4);
        let mut server = server_with(Box::new(ExactBackend), BatchPolicy::default());
        let session = server.register(MemoryConfig::new(&keys, &values)).unwrap();
        // Ids are table indices; one never issued, however large, is unknown.
        for raw in [99, u64::MAX] {
            let id = SessionId::from_raw(raw);
            assert!(server.session(id).is_none());
            assert!(matches!(
                server.submit(Request::new(id, vec![0.0; 4], 0)),
                Err(ServeError::UnknownSession { session }) if session == raw
            ));
        }
        assert!(matches!(
            server.submit(Request::new(session, vec![0.0; 3], 0)),
            Err(ServeError::Attention(
                AttentionError::DimensionMismatch { .. }
            ))
        ));
        assert_eq!(server.pending(), 0, "rejected requests must not queue");
    }

    #[test]
    fn batches_flush_on_fill_window_and_deadline() {
        let (keys, values) = memory(0.0, 10, 4);
        let mut server = server_with(
            Box::new(ApproximateBackend::conservative()),
            BatchPolicy::new(2, 100).unwrap(),
        );
        let session = server.register(MemoryConfig::new(&keys, &values)).unwrap();

        // Fill: two requests at t=0 and t=5 are due at t=5.
        server
            .submit(Request::new(session, query(4, 0.0), 0))
            .unwrap();
        server
            .submit(Request::new(session, query(4, 0.1), 5))
            .unwrap();
        let full = server.poll(5).unwrap();
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].reason, FlushReason::Full);

        // Window: a lone request flushes 100 ticks after arrival.
        server
            .submit(Request::new(session, query(4, 0.2), 10))
            .unwrap();
        assert!(server.poll(109).unwrap().is_empty());
        let windowed = server.poll(110).unwrap();
        assert_eq!(windowed[0].reason, FlushReason::Window);
        assert_eq!(windowed[0].formed_at, 110);

        // Deadline: a request due at t=230 forces a partial flush before the window.
        server
            .submit(Request::new(session, query(4, 0.3), 200).with_deadline(230))
            .unwrap();
        let dead = server.poll(230).unwrap();
        assert_eq!(dead[0].reason, FlushReason::Deadline);
        assert!(!dead[0].responses[0].missed_deadline());

        // A late poll marks the deadline as missed.
        server
            .submit(Request::new(session, query(4, 0.4), 300).with_deadline(310))
            .unwrap();
        let late = server.poll(400).unwrap();
        assert!(late[0].responses[0].missed_deadline());
        assert_eq!(late[0].responses[0].waited(), 100);
        assert_eq!(server.stats().deadline_misses, 1);
    }

    #[test]
    fn sessions_do_not_share_batches() {
        let (k0, v0) = memory(0.0, 8, 4);
        let (k1, v1) = memory(1.0, 8, 4);
        let mut server = server_with(Box::new(ExactBackend), BatchPolicy::new(4, 10).unwrap());
        let s0 = server.register(MemoryConfig::new(&k0, &v0)).unwrap();
        let s1 = server.register(MemoryConfig::new(&k1, &v1)).unwrap();
        assert_ne!(s0, s1);
        server.submit(Request::new(s0, query(4, 0.0), 0)).unwrap();
        server.submit(Request::new(s1, query(4, 0.1), 0)).unwrap();
        let batches = server.poll(50).unwrap();
        assert_eq!(batches.len(), 2, "one batch per session");
        assert_eq!(batches[0].session, s0);
        assert_eq!(batches[1].session, s1);
    }

    #[test]
    fn reregistering_a_memory_reuses_its_preparation() {
        let (keys, values) = memory(0.0, 16, 8);
        let mut server = server_with(
            Box::new(ApproximateBackend::conservative()),
            BatchPolicy::default(),
        );
        let first = server.register(MemoryConfig::new(&keys, &values)).unwrap();
        let second = server.register(MemoryConfig::new(&keys, &values)).unwrap();
        assert_ne!(first, second, "sessions are distinct even for one memory");
        assert!(!server.session(first).unwrap().reused_preparation());
        assert!(server.session(second).unwrap().reused_preparation());
        assert_eq!(
            server.session(first).unwrap().fingerprint(),
            server.session(second).unwrap().fingerprint()
        );
        assert_eq!((server.cache().hits(), server.cache().misses()), (1, 1));
    }

    #[test]
    fn a_registration_content_hashes_each_row_once() {
        use crate::backend::simd::test_support::ROWS_HASHED;
        let rows_hashed = || ROWS_HASHED.with(std::cell::Cell::get);
        let (keys, values) = memory(0.0, 24, 8);
        for shards in [1, 4] {
            let mut server = server_with(Box::new(ExactBackend), BatchPolicy::default());
            let before = rows_hashed();
            let id = server
                .register(MemoryConfig::new(&keys, &values).sharded(shards))
                .unwrap();
            assert_eq!(rows_hashed() - before, 24, "x{shards}");
            assert_eq!(
                server.session(id).unwrap().fingerprint(),
                crate::backend::memory_fingerprint(&keys, &values),
                "x{shards}"
            );
        }
    }

    #[test]
    fn a_zero_width_memory_is_a_typed_error_at_registration() {
        let zero_width = Matrix::from_flat(vec![], 2, 0).unwrap();
        for shards in [1, 2] {
            let mut server = server_with(Box::new(ExactBackend), BatchPolicy::default());
            assert!(
                matches!(
                    server.register(MemoryConfig::new(&zero_width, &zero_width).sharded(shards)),
                    Err(ServeError::Attention(AttentionError::InvalidParameter {
                        name: "keys",
                        ..
                    }))
                ),
                "x{shards}"
            );
            assert_eq!(server.sessions().count(), 0, "x{shards}");
        }
    }

    #[test]
    fn a_registration_whose_values_carry_extra_rows_is_rejected_warm_or_cold() {
        let (keys, _) = memory(0.0, 2, 4);
        let (long_values, _) = memory(0.5, 3, 4);
        for shards in [1, 2] {
            let mut server = server_with(Box::new(ExactBackend), BatchPolicy::default());
            server
                .register(MemoryConfig::new(&keys, &keys).sharded(shards))
                .unwrap();
            // The fingerprint of (keys, long_values) covers two rows, like
            // the registered memory's; the shapes are checked first.
            for _ in 0..2 {
                assert!(
                    matches!(
                        server.register(MemoryConfig::new(&keys, &long_values).sharded(shards)),
                        Err(ServeError::Attention(AttentionError::RowCountMismatch {
                            keys: 2,
                            values: 3
                        }))
                    ),
                    "x{shards}"
                );
            }
            assert_eq!(server.sessions().count(), 1, "x{shards}");
            assert_eq!(server.cache().hits(), 0, "x{shards}");
        }
    }

    #[test]
    fn stats_track_batches_and_fill() {
        let (keys, values) = memory(0.0, 8, 4);
        let mut server = server_with(Box::new(ExactBackend), BatchPolicy::new(2, 1000).unwrap());
        let session = server.register(MemoryConfig::new(&keys, &values)).unwrap();
        for i in 0..4 {
            server
                .submit(Request::new(session, query(4, 0.1 * i as f32), i))
                .unwrap();
        }
        server.poll(10).unwrap();
        let stats = server.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.batches, 2);
        assert!((stats.avg_batch_fill() - 2.0).abs() < 1e-12);
        // No poll ran between submissions, so the queue grew to all four requests.
        assert_eq!(stats.max_queue_depth, 4);
        assert_eq!(ServerStats::default().avg_batch_fill(), 0.0);
    }

    #[test]
    fn sharded_sessions_execute_batches_across_shards_bit_identically() {
        for backend in all_backends() {
            let name = backend.name();
            let (keys, values) = memory(0.0, 24, 6);
            let reference = crate::backend::ShardedMemory::prepare(
                backend.as_ref(),
                ShardPlan::new(3).unwrap(),
                &keys,
                &values,
            )
            .unwrap();
            let mut server = server_with(backend, BatchPolicy::new(4, 50).unwrap());
            let session = server
                .register(MemoryConfig::new(&keys, &values).sharded(3))
                .unwrap();
            assert_eq!(server.session(session).unwrap().shard_count(), 3);
            assert_eq!(server.session(session).unwrap().memory().n(), 24);
            let queries: Vec<Vec<f32>> = (0..6).map(|i| query(6, 0.1 * i as f32)).collect();
            for (i, q) in queries.iter().enumerate() {
                server
                    .submit(Request::new(session, q.clone(), i as Tick))
                    .unwrap();
            }
            let mut responses: Vec<Response> = Vec::new();
            for batch in server.flush_all(100).unwrap() {
                responses.extend(batch.responses);
            }
            assert_eq!(responses.len(), queries.len(), "{name}");
            responses.sort_by_key(|r| r.request);
            for (q, response) in queries.iter().zip(&responses) {
                let direct = server.backend().attend_sharded(&reference, q).unwrap();
                assert_eq!(response.result, direct, "{name}");
            }
        }
    }

    #[test]
    fn single_shard_plan_is_a_whole_session() {
        let (keys, values) = memory(0.0, 8, 4);
        let mut server = server_with(Box::new(ExactBackend), BatchPolicy::default());
        let whole = server.register(MemoryConfig::new(&keys, &values)).unwrap();
        let single = server
            .register(MemoryConfig::new(&keys, &values).sharded(1))
            .unwrap();
        assert_eq!(server.session(single).unwrap().shard_count(), 1);
        assert!(server.session(single).unwrap().memory().whole().is_some());
        assert!(
            server.session(single).unwrap().reused_preparation(),
            "the single-shard plan must reuse the whole-memory cache entry"
        );
        assert_eq!(
            server.session(whole).unwrap().fingerprint(),
            server.session(single).unwrap().fingerprint()
        );
        // Zero shards are rejected at registration.
        assert!(server
            .register(MemoryConfig::new(&keys, &values).sharded(0))
            .is_err());
    }

    #[test]
    fn resharding_a_session_reuses_per_shard_preparations() {
        let (keys, values) = memory(0.0, 16, 4);
        let mut server = server_with(
            Box::new(ApproximateBackend::conservative()),
            BatchPolicy::default(),
        );
        let first = server
            .register(MemoryConfig::new(&keys, &values).sharded(4))
            .unwrap();
        assert!(!server.session(first).unwrap().reused_preparation());
        let second = server
            .register(MemoryConfig::new(&keys, &values).sharded(4))
            .unwrap();
        assert!(
            server.session(second).unwrap().reused_preparation(),
            "re-registering the same sharded memory must hit every shard's entry"
        );
        assert_eq!((server.cache().hits(), server.cache().misses()), (4, 4));
        let sharded = server.session(second).unwrap().memory().sharded().unwrap();
        assert_eq!(sharded.shard_count(), 4);
    }

    fn concat(a: &Matrix, b: &Matrix) -> Matrix {
        let mut m = a.clone();
        m.append_rows(b).unwrap();
        m
    }

    #[test]
    fn streaming_session_append_matches_reregistration_for_every_backend() {
        for (backend, reference_backend) in all_backends().into_iter().zip(all_backends()) {
            let name = backend.name();
            let (keys, values) = memory(0.0, 12, 6);
            let (extra_keys, extra_values) = memory(0.5, 3, 6);
            let grown_keys = concat(&keys, &extra_keys);
            let grown_values = concat(&values, &extra_values);

            let mut server = server_with(backend, BatchPolicy::new(1, 10).unwrap());
            let session = server.register(MemoryConfig::new(&keys, &values)).unwrap();
            let mutation = server
                .append_to_session(session, &extra_keys, &extra_values)
                .unwrap();
            assert_eq!(server.session(session).unwrap().memory().n(), 15, "{name}");
            assert_eq!(
                mutation.fingerprint,
                crate::backend::memory_fingerprint(&grown_keys, &grown_values),
                "{name}: delta fingerprint must equal the from-scratch fingerprint"
            );
            assert_eq!(server.cache().updates(), 1, "{name}");
            assert_eq!(server.cache().misses(), 1, "{name}");

            // The mutated session answers exactly like a session registered over
            // the concatenated memory from scratch.
            let mut reference = server_with(reference_backend, BatchPolicy::new(1, 10).unwrap());
            let ref_session = reference
                .register(MemoryConfig::new(&grown_keys, &grown_values))
                .unwrap();
            let q = query(6, 0.2);
            server.submit(Request::new(session, q.clone(), 0)).unwrap();
            reference
                .submit(Request::new(ref_session, q.clone(), 0))
                .unwrap();
            let got = server.poll(0).unwrap();
            let want = reference.poll(0).unwrap();
            assert_eq!(
                got[0].responses[0].result, want[0].responses[0].result,
                "{name}"
            );

            // The cache entry was *updated*, not invalidated: re-registering the
            // grown memory reuses the preparation without a miss.
            let again = server
                .register(MemoryConfig::new(&grown_keys, &grown_values))
                .unwrap();
            assert!(
                server.session(again).unwrap().reused_preparation(),
                "{name}: the appended session's cache entry must be addressable"
            );
        }
    }

    #[test]
    fn streaming_session_update_matches_reregistration() {
        for backend in all_backends() {
            let name = backend.name();
            let (keys, values) = memory(0.0, 10, 4);
            let new_key = vec![0.7, -0.3, 0.1, 0.5];
            let new_value = vec![0.2; 4];
            let mut mutated_keys = keys.clone();
            mutated_keys.set_row(4, &new_key).unwrap();
            let mut mutated_values = values.clone();
            mutated_values.set_row(4, &new_value).unwrap();

            let mut server = server_with(backend, BatchPolicy::new(1, 10).unwrap());
            let session = server.register(MemoryConfig::new(&keys, &values)).unwrap();
            let mutation = server
                .update_session_row(session, 4, &new_key, &new_value)
                .unwrap();
            assert_eq!(
                mutation.fingerprint,
                crate::backend::memory_fingerprint(&mutated_keys, &mutated_values),
                "{name}"
            );
            assert_eq!(
                server.session(session).unwrap().fingerprint(),
                mutation.fingerprint
            );
            let reference = server
                .backend()
                .prepare(&mutated_keys, &mutated_values)
                .unwrap();
            let q = query(4, 0.1);
            server.submit(Request::new(session, q.clone(), 0)).unwrap();
            let got = server.poll(0).unwrap();
            let direct = server.backend().attend_prepared(&reference, &q).unwrap();
            assert_eq!(got[0].responses[0].result, direct, "{name}");
        }
    }

    #[test]
    fn streaming_mutations_on_sharded_sessions_stay_consistent() {
        let (keys, values) = memory(0.0, 16, 4);
        let (extra_keys, extra_values) = memory(0.3, 2, 4);
        let plan = ShardPlan::new(4).unwrap();
        let backend: Box<dyn ComputeBackend> = Box::new(ExactBackend);
        let mut server = server_with(backend, BatchPolicy::new(1, 10).unwrap());
        let session = server
            .register(MemoryConfig::new(&keys, &values).sharded(4))
            .unwrap();
        let mutation = server
            .append_to_session(session, &extra_keys, &extra_values)
            .unwrap();
        assert_eq!(server.session(session).unwrap().memory().n(), 18);
        assert_eq!(
            mutation.fingerprint,
            crate::backend::memory_fingerprint(
                &concat(&keys, &extra_keys),
                &concat(&values, &extra_values)
            ),
            "session fingerprint is the whole logical memory's, even sharded"
        );

        // An identically grown sharded memory answers bit-identically.
        let mut cache = MemoryCache::new(16);
        let (mut reference, _) =
            ShardedMemory::prepare_cached(&ExactBackend, plan, &mut cache, &keys, &values).unwrap();
        reference
            .append_rows_cached(&ExactBackend, &mut cache, &extra_keys, &extra_values)
            .unwrap();
        let q = query(4, 0.0);
        server.submit(Request::new(session, q.clone(), 0)).unwrap();
        let got = server.poll(0).unwrap();
        let direct = ExactBackend.attend_sharded(&reference, &q).unwrap();
        assert_eq!(got[0].responses[0].result, direct);

        // Row updates relocate through the shard map.
        let update = server
            .update_session_row(session, 17, &[1.0; 4], &[0.5; 4])
            .unwrap();
        assert!(!update.rebalanced);
        let mut grown_keys = concat(&keys, &extra_keys);
        grown_keys.set_row(17, &[1.0; 4]).unwrap();
        let mut grown_values = concat(&values, &extra_values);
        grown_values.set_row(17, &[0.5; 4]).unwrap();
        assert_eq!(
            update.fingerprint,
            crate::backend::memory_fingerprint(&grown_keys, &grown_values)
        );
    }

    /// Address of every prepared memory serving a session, shard by shard.
    fn prepared_addresses(server: &AttentionServer, id: SessionId) -> Vec<*const PreparedMemory> {
        match server.session(id).unwrap().memory() {
            SessionMemory::Whole(memory) => vec![Arc::as_ptr(memory)],
            SessionMemory::Sharded(sharded) => sharded
                .shards()
                .iter()
                .map(|shard| shard.memory() as *const _)
                .collect(),
        }
    }

    /// Runs one query against a session and returns its result.
    fn answer(server: &mut AttentionServer, id: SessionId, q: &[f32]) -> AttentionResult {
        server.submit(Request::new(id, q.to_vec(), 0)).unwrap();
        let mut batches = server.flush_all(0).unwrap();
        batches.remove(0).responses.remove(0).result
    }

    #[test]
    fn streaming_mutations_keep_cached_memories_in_place() {
        for shards in [1, 4] {
            for backend in all_backends() {
                let name = format!("{} x{shards}", backend.name());
                let (keys, values) = memory(0.0, 16, 4);
                let (extra_keys, extra_values) = memory(0.3, 1, 4);
                let mut server = server_with(backend, BatchPolicy::default());
                let session = server
                    .register(MemoryConfig::new(&keys, &values).sharded(shards))
                    .unwrap();
                let before = prepared_addresses(&server, session);
                // Checked after each mutation: a copy is made while the original
                // is still alive, so it can never land at the original address.
                let append = server
                    .append_to_session(session, &extra_keys, &extra_values)
                    .unwrap();
                assert!(!append.rebalanced, "{name}");
                assert_eq!(prepared_addresses(&server, session), before, "{name}");
                server
                    .update_session_row(session, 5, &[0.7; 4], &[0.2; 4])
                    .unwrap();
                assert_eq!(prepared_addresses(&server, session), before, "{name}");
                assert_eq!(server.cache().updates(), 2, "{name}");
            }
        }
    }

    #[test]
    fn mutating_a_session_leaves_sessions_sharing_its_preparation_untouched() {
        for shards in [1, 4] {
            for backend in all_backends() {
                let name = format!("{} x{shards}", backend.name());
                let (keys, values) = memory(0.0, 16, 4);
                let (extra_keys, extra_values) = memory(0.3, 1, 4);
                let mut server = server_with(backend, BatchPolicy::default());
                let config = MemoryConfig::new(&keys, &values).sharded(shards);
                let mutated = server.register(config).unwrap();
                let shared = server.register(config).unwrap();
                assert!(server.session(shared).unwrap().reused_preparation());
                let before = prepared_addresses(&server, shared);
                assert_eq!(prepared_addresses(&server, mutated), before, "{name}");
                let q = query(4, 0.1);
                let want = answer(&mut server, shared, &q);

                server
                    .append_to_session(mutated, &extra_keys, &extra_values)
                    .unwrap();
                server
                    .update_session_row(mutated, 5, &[0.7; 4], &[0.2; 4])
                    .unwrap();
                let handle = server.session(shared).unwrap();
                assert_eq!(
                    handle.fingerprint(),
                    crate::backend::memory_fingerprint(&keys, &values),
                    "{name}"
                );
                assert_eq!(handle.memory().n(), 16, "{name}");
                assert_eq!(prepared_addresses(&server, shared), before, "{name}");
                assert_ne!(prepared_addresses(&server, mutated), before, "{name}");
                assert_eq!(answer(&mut server, shared, &q), want, "{name}");
            }
        }
    }

    #[test]
    fn session_mutations_reject_unknown_sessions_and_bad_shapes() {
        for shards in [1, 4] {
            let (keys, values) = memory(0.0, 8, 4);
            let mut server = server_with(Box::new(ExactBackend), BatchPolicy::default());
            let session = server
                .register(MemoryConfig::new(&keys, &values).sharded(shards))
                .unwrap();
            let before = prepared_addresses(&server, session);
            let (extra_keys, extra_values) = memory(0.1, 1, 4);
            assert!(matches!(
                server.append_to_session(SessionId::from_raw(99), &extra_keys, &extra_values),
                Err(ServeError::UnknownSession { session: 99 })
            ));
            assert!(matches!(
                server.update_session_row(SessionId::from_raw(99), 0, &[0.0; 4], &[0.0; 4]),
                Err(ServeError::UnknownSession { session: 99 })
            ));
            // Out-of-range row and mismatched dimensions are attention errors.
            assert!(server
                .update_session_row(session, 8, &[0.0; 4], &[0.0; 4])
                .is_err());
            assert!(server
                .update_session_row(session, 0, &[0.0; 3], &[0.0; 4])
                .is_err());
            let (bad_keys, _) = memory(0.2, 2, 3);
            assert!(server
                .append_to_session(session, &bad_keys, &bad_keys)
                .is_err());
            // An empty append is checked for width like any other, then
            // changes nothing.
            let narrow = Matrix::zeros(0, 3);
            assert!(
                matches!(
                    server.append_to_session(session, &narrow, &narrow),
                    Err(ServeError::Attention(AttentionError::DimensionMismatch {
                        expected: 4,
                        actual: 3
                    }))
                ),
                "x{shards}"
            );
            let fingerprint = crate::backend::memory_fingerprint(&keys, &values);
            let empty = Matrix::zeros(0, 4);
            assert_eq!(
                server.append_to_session(session, &empty, &empty).unwrap(),
                SessionMutation {
                    incremental_ops: 0,
                    full_reprepares: 0,
                    rebalanced: false,
                    fingerprint,
                },
                "x{shards}"
            );
            // The failed mutations and the empty append left the session as
            // registered.
            let handle = server.session(session).unwrap();
            assert_eq!(handle.memory().n(), 8, "x{shards}");
            assert_eq!(handle.fingerprint(), fingerprint, "x{shards}");
            assert_eq!(server.cache().updates(), 0, "x{shards}");
            assert_eq!(prepared_addresses(&server, session), before, "x{shards}");
        }
    }

    #[test]
    fn empty_flush_is_legal_and_ids_render() {
        let mut server = server_with(Box::new(ExactBackend), BatchPolicy::default());
        assert!(server.poll(0).unwrap().is_empty());
        assert!(server.flush_all(0).unwrap().is_empty());
        assert_eq!(server.next_due(), None);
        assert_eq!(SessionId::from_raw(3).to_string(), "s3");
        assert_eq!(RequestId::from_raw(7).to_string(), "r7");
        assert_eq!(SessionId::from_raw(3).raw(), 3);
        let debug = format!("{server:?}");
        assert!(debug.contains("AttentionServer"));
    }

    #[test]
    fn registration_rejects_unknown_tenants() {
        let (keys, values) = memory(0.0, 8, 4);
        let mut server = server_with(Box::new(ExactBackend), BatchPolicy::default());
        assert!(matches!(
            server.register(MemoryConfig::new(&keys, &values).tenant(TenantId::from_raw(9))),
            Err(ServeError::UnknownTenant { tenant: 9 })
        ));
        server.register_tenant(TenantId::from_raw(9), TenantConfig::new(Priority::High));
        let session = server
            .register(MemoryConfig::new(&keys, &values).tenant(TenantId::from_raw(9)))
            .unwrap();
        assert_eq!(
            server.session(session).unwrap().tenant(),
            TenantId::from_raw(9)
        );
    }

    #[test]
    fn over_rate_tenants_are_throttled_at_submit() {
        let (keys, values) = memory(0.0, 8, 4);
        let limited = TenantId::from_raw(1);
        let mut server = AttentionServer::builder(Box::new(ExactBackend))
            .batch_policy(BatchPolicy::per_request())
            .tenant(
                limited,
                TenantConfig::new(Priority::Normal)
                    // 1 request per 100 ticks, burst 2.
                    .with_rate_limit(RateLimit::new(1, 100, 2).unwrap()),
            )
            .build();
        let session = server
            .register(MemoryConfig::new(&keys, &values).tenant(limited))
            .unwrap();
        assert!(server
            .submit(Request::new(session, query(4, 0.0), 0))
            .is_ok());
        assert!(server
            .submit(Request::new(session, query(4, 0.1), 0))
            .is_ok());
        assert!(matches!(
            server.submit(Request::new(session, query(4, 0.2), 10)),
            Err(ServeError::Throttled { tenant: 1 })
        ));
        // The bucket refills: +100 ticks buys exactly one more admission.
        assert!(server
            .submit(Request::new(session, query(4, 0.3), 100))
            .is_ok());
        let stats = server.tenant_stats(limited).unwrap();
        assert_eq!(stats.offered, 4);
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.throttled, 1);
        assert_eq!(server.stats().throttled, 1);
        assert_eq!(server.stats().submitted, 3);
        assert_eq!(server.pending(), 3, "throttled requests never queue");
        // Completion flows into the tenant's counters.
        server.flush_all(200).unwrap();
        assert_eq!(server.tenant_stats(limited).unwrap().completed, 3);
    }

    #[test]
    fn high_priority_tenants_flush_ahead_of_background() {
        let (k0, v0) = memory(0.0, 8, 4);
        let (k1, v1) = memory(1.0, 8, 4);
        let high = TenantId::from_raw(1);
        let bg = TenantId::from_raw(2);
        let mut server = AttentionServer::builder(Box::new(ExactBackend))
            .batch_policy(BatchPolicy::per_request())
            .tenant(high, TenantConfig::new(Priority::High))
            .tenant(bg, TenantConfig::new(Priority::Background))
            .build();
        // Register background first so session-id order would favour it; the
        // weighted-fair scheduler must still flush the high-priority tenant first.
        let bg_session = server
            .register(MemoryConfig::new(&k0, &v0).tenant(bg))
            .unwrap();
        let high_session = server
            .register(MemoryConfig::new(&k1, &v1).tenant(high))
            .unwrap();
        for i in 0..4 {
            server
                .submit(Request::new(bg_session, query(4, 0.1 * i as f32), 0))
                .unwrap();
            server
                .submit(Request::new(high_session, query(4, 0.2 * i as f32), 0))
                .unwrap();
        }
        let batches = server.poll(0).unwrap();
        assert_eq!(batches.len(), 8);
        let order: Vec<SessionId> = batches.iter().map(|b| b.session).collect();
        assert_eq!(
            order.first(),
            Some(&high_session),
            "the high-priority batch must flush first"
        );
        // Weight 8 vs 1: all four high batches drain before the last background one.
        let last_high = order.iter().rposition(|&s| s == high_session).unwrap();
        let last_bg = order.iter().rposition(|&s| s == bg_session).unwrap();
        assert!(
            last_high < last_bg,
            "background must finish last: {order:?}"
        );
        assert_eq!(server.tenant_stats(high).unwrap().completed, 4);
        assert_eq!(server.tenant_stats(bg).unwrap().completed, 4);
    }

    #[test]
    fn sessions_iterate_in_id_order() {
        let (keys, values) = memory(0.0, 8, 4);
        let mut server = AttentionServer::builder(Box::new(ExactBackend)).build();
        let mut ids = Vec::new();
        for _ in 0..9 {
            ids.push(server.register(MemoryConfig::new(&keys, &values)).unwrap());
        }
        let iterated: Vec<SessionId> = server.sessions().map(SessionHandle::id).collect();
        assert_eq!(iterated, ids, "iteration must stay in id order");
    }

    #[test]
    fn tenant_roster_and_reconfiguration() {
        let mut server = AttentionServer::builder(Box::new(ExactBackend)).build();
        let roster: Vec<TenantId> = server.tenants().map(|(id, _)| id).collect();
        assert_eq!(roster, vec![TenantId::DEFAULT]);
        assert!(server.tenant_config(TenantId::from_raw(3)).is_none());
        assert!(server.tenant_stats(TenantId::from_raw(3)).is_none());
        server.register_tenant(TenantId::from_raw(3), TenantConfig::new(Priority::High));
        assert_eq!(
            server
                .tenant_config(TenantId::from_raw(3))
                .unwrap()
                .priority(),
            Priority::High
        );
        // Reconfiguring keeps counters but applies the new class.
        server.register_tenant(
            TenantId::from_raw(3),
            TenantConfig::new(Priority::Background),
        );
        assert_eq!(
            server
                .tenant_config(TenantId::from_raw(3))
                .unwrap()
                .priority(),
            Priority::Background
        );
        assert_eq!(
            server.tenant_stats(TenantId::from_raw(3)).unwrap(),
            TenantStats::default()
        );
    }
}
