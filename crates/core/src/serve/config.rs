//! Builder-style configuration for registration and server construction.
//!
//! Every knob lives on a builder instead of on its own constructor or
//! registration method:
//!
//! * [`MemoryConfig`] describes one memory registration — the key/value
//!   matrices plus optional sharding and tenant assignment — consumed by
//!   [`super::AttentionServer::register`];
//! * [`ServerBuilder`] assembles an [`super::AttentionServer`] from a backend,
//!   a batch policy, the cache size and the tenant roster, via
//!   [`super::AttentionServer::builder`].

use crate::backend::{ComputeBackend, MemoryCache};
use crate::Matrix;

use super::{AttentionServer, BatchPolicy, TenantConfig, TenantId};

/// One memory registration: which matrices to prepare, across how many shards,
/// and for which tenant.
///
/// ```
/// use a3_core::backend::ExactBackend;
/// use a3_core::serve::{AttentionServer, MemoryConfig};
/// use a3_core::Matrix;
///
/// let keys = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
/// let mut server = AttentionServer::builder(Box::new(ExactBackend)).build();
/// let session = server.register(MemoryConfig::new(&keys, &keys)).unwrap();
/// let sharded = server.register(MemoryConfig::new(&keys, &keys).sharded(2)).unwrap();
/// assert_ne!(session, sharded);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MemoryConfig<'a> {
    keys: &'a Matrix,
    values: &'a Matrix,
    shards: usize,
    tenant: TenantId,
}

impl<'a> MemoryConfig<'a> {
    /// Describes a whole (unsharded) registration of (`keys`, `values`) under
    /// the default tenant.
    pub fn new(keys: &'a Matrix, values: &'a Matrix) -> Self {
        Self {
            keys,
            values,
            shards: 1,
            tenant: TenantId::DEFAULT,
        }
    }

    /// Splits the memory row-wise across `shards` shards (1 is the unsharded
    /// fast path; 0 is rejected at registration time).
    pub fn sharded(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Registers the session under `tenant` (which must have been registered
    /// with the server, e.g. via [`ServerBuilder::tenant`]).
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// The key matrix.
    pub fn keys(&self) -> &'a Matrix {
        self.keys
    }

    /// The value matrix.
    pub fn values(&self) -> &'a Matrix {
        self.values
    }

    /// Requested shard count.
    pub fn shard_request(&self) -> usize {
        self.shards
    }

    /// The owning tenant.
    pub fn tenant_id(&self) -> TenantId {
        self.tenant
    }
}

/// Assembles an [`AttentionServer`]: backend, batch policy, cache capacity and
/// the tenant roster.
///
/// The default tenant ([`TenantId::DEFAULT`]) always exists — normal priority,
/// no rate limit — so single-tenant callers need none of the tenant knobs.
///
/// ```
/// use a3_core::backend::ExactBackend;
/// use a3_core::serve::{
///     AttentionServer, BatchPolicy, Priority, RateLimit, TenantConfig, TenantId,
/// };
///
/// let server = AttentionServer::builder(Box::new(ExactBackend))
///     .batch_policy(BatchPolicy::new(8, 256).unwrap())
///     .cache_capacity(32)
///     .tenant(
///         TenantId::from_raw(1),
///         TenantConfig::new(Priority::High)
///             .with_rate_limit(RateLimit::new(100, 1_000, 10).unwrap()),
///     )
///     .build();
/// assert_eq!(server.policy().max_batch, 8);
/// ```
pub struct ServerBuilder {
    backend: Box<dyn ComputeBackend>,
    policy: BatchPolicy,
    cache_capacity: usize,
    tenants: Vec<(TenantId, TenantConfig)>,
}

impl std::fmt::Debug for ServerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerBuilder")
            .field("backend", &self.backend.name())
            .field("policy", &self.policy)
            .field("cache_capacity", &self.cache_capacity)
            .field("tenants", &self.tenants.len())
            .finish()
    }
}

impl ServerBuilder {
    pub(super) fn new(backend: Box<dyn ComputeBackend>) -> Self {
        Self {
            backend,
            policy: BatchPolicy::default(),
            cache_capacity: MemoryCache::default().capacity(),
            tenants: Vec::new(),
        }
    }

    /// Sets the dynamic-batching policy (default [`BatchPolicy::default`]).
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the preprocessing-cache capacity (default 16; 0 disables reuse).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Registers a tenant with its priority class and optional rate limit.
    /// Repeating an id keeps the last configuration.
    pub fn tenant(mut self, id: TenantId, config: TenantConfig) -> Self {
        self.tenants.push((id, config));
        self
    }

    /// Builds the server: the cache is an LRU cache of the configured capacity,
    /// the default tenant is registered first, then every explicit tenant in
    /// the order given.
    pub fn build(self) -> AttentionServer {
        let mut server = AttentionServer::from_parts(
            self.backend,
            self.policy,
            MemoryCache::new(self.cache_capacity),
        );
        for (id, config) in self.tenants {
            server.register_tenant(id, config);
        }
        server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExactBackend;
    use crate::serve::{Priority, RateLimit};

    #[test]
    fn memory_config_accessors_roundtrip() {
        let keys = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let config = MemoryConfig::new(&keys, &keys)
            .sharded(3)
            .tenant(TenantId::from_raw(7));
        assert_eq!(config.shard_request(), 3);
        assert_eq!(config.tenant_id(), TenantId::from_raw(7));
        assert_eq!(config.keys().rows(), 2);
        assert_eq!(config.values().rows(), 2);
        let default = MemoryConfig::new(&keys, &keys);
        assert_eq!(default.shard_request(), 1);
        assert_eq!(default.tenant_id(), TenantId::DEFAULT);
    }

    #[test]
    fn builder_configures_cache_and_tenants() {
        let limit = RateLimit::new(10, 100, 5).unwrap();
        let builder = AttentionServer::builder(Box::new(ExactBackend))
            .batch_policy(BatchPolicy::per_request())
            .cache_capacity(3)
            .tenant(
                TenantId::from_raw(2),
                TenantConfig::new(Priority::High).with_rate_limit(limit),
            );
        assert!(format!("{builder:?}").contains("ServerBuilder"));
        let server = builder.build();
        assert_eq!(server.policy(), BatchPolicy::per_request());
        assert_eq!(server.cache().capacity(), 3);
        let config = server.tenant_config(TenantId::from_raw(2)).unwrap();
        assert_eq!(config.priority(), Priority::High);
        assert_eq!(config.rate_limit(), Some(limit));
        // The default tenant always exists.
        let default = server.tenant_config(TenantId::DEFAULT).unwrap();
        assert_eq!(default.priority(), Priority::Normal);
        assert!(default.rate_limit().is_none());
    }
}
