//! Tenancy primitives: tenant identity, priority classes, and token-bucket
//! admission control.
//!
//! Production attention serving multiplexes many *tenants* (products, customers,
//! traffic classes) over one accelerator. Each tenant owns a set of sessions and
//! gets two isolation levers:
//!
//! * **admission** — an optional [`RateLimit`] enforced by an exact integer
//!   [`TokenBucket`]: a tenant offering load beyond its contracted rate is
//!   throttled at [`super::AttentionServer::submit`] time, before its requests
//!   can queue behind (and delay) anyone else's;
//! * **priority** — a [`Priority`] class that maps to a weighted-fair-queueing
//!   weight inside the [`super::Scheduler`]: when several tenants hold due
//!   batches, flush order follows per-tenant virtual time, so a high-priority
//!   tenant drains ahead of background traffic in proportion to its weight
//!   without ever starving the rest.
//!
//! Everything here is integer arithmetic on logical [`Tick`]s: admission
//! decisions are exact and deterministic, so a trace replayed through the server
//! (as `a3-sim`'s discrete-event model does) always admits the same requests.

use std::fmt;

use crate::ServeError;

use super::Tick;

/// Identifies one tenant (an isolation domain owning sessions) within a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(u64);

impl TenantId {
    /// The implicit tenant that owns every session not registered to an explicit
    /// tenant. It always exists, has [`Priority::Normal`] and no rate limit, so
    /// single-tenant callers never see the tenancy layer.
    pub const DEFAULT: TenantId = TenantId(0);

    /// Builds a tenant id from its raw value.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A tenant's scheduling class. The class maps to a weighted-fair-queueing
/// weight ([`Priority::weight`]): relative drain rates under contention are
/// proportional to weights, and no class ever starves another.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic (weight 8): drains ahead of everything else
    /// when batches contend for the accelerator.
    High,
    /// The default class (weight 4).
    #[default]
    Normal,
    /// Bulk / best-effort traffic (weight 1): yields to the other classes but
    /// still receives its proportional share.
    Background,
}

impl Priority {
    /// The weighted-fair-queueing weight of this class.
    pub fn weight(self) -> u64 {
        match self {
            Priority::High => 8,
            Priority::Normal => 4,
            Priority::Background => 1,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Background => "background",
        };
        write!(f, "{name}")
    }
}

/// A sustained admission rate with a burst allowance: at most `requests`
/// admissions per `per_ticks` ticks once the burst is spent, with up to `burst`
/// admissions available instantaneously after an idle period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    requests: u64,
    per_ticks: u64,
    burst: u64,
}

impl RateLimit {
    /// Creates a rate limit of `requests` admissions per `per_ticks` ticks,
    /// with a bucket capacity of `burst` requests.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidPolicy`] if any component is zero.
    pub fn new(requests: u64, per_ticks: u64, burst: u64) -> Result<Self, ServeError> {
        if requests == 0 {
            return Err(ServeError::InvalidPolicy {
                name: "requests",
                constraint: "rate limit must admit at least 1 request per interval",
            });
        }
        if per_ticks == 0 {
            return Err(ServeError::InvalidPolicy {
                name: "per_ticks",
                constraint: "rate limit interval must be at least 1 tick",
            });
        }
        if burst == 0 {
            return Err(ServeError::InvalidPolicy {
                name: "burst",
                constraint: "burst capacity must be at least 1 request",
            });
        }
        Ok(Self {
            requests,
            per_ticks,
            burst,
        })
    }

    /// Admissions per interval.
    pub fn requests(self) -> u64 {
        self.requests
    }

    /// Interval length in ticks.
    pub fn per_ticks(self) -> u64 {
        self.per_ticks
    }

    /// Bucket capacity in requests.
    pub fn burst(self) -> u64 {
        self.burst
    }
}

/// An exact integer token bucket enforcing a [`RateLimit`].
///
/// Tokens are tracked in units of 1/`per_ticks` request, so refill is exact:
/// advancing by `Δ` ticks adds `Δ · requests` scaled tokens (saturating at the
/// burst capacity `burst · per_ticks`), and each admission consumes `per_ticks`
/// scaled tokens. No floating point, no rounding drift: over any interval
/// `[t0, t1]` the bucket admits at most
/// `burst + (t1 - t0) · requests / per_ticks` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TokenBucket {
    limit: RateLimit,
    /// Scaled tokens: one admission costs `limit.per_ticks`.
    tokens: u64,
    /// Tick of the last refill.
    refilled_at: Tick,
}

impl TokenBucket {
    /// Creates a bucket that is full (the whole burst available) at tick `now`.
    pub fn new(limit: RateLimit, now: Tick) -> Self {
        Self {
            limit,
            tokens: Self::capacity_scaled(limit),
            refilled_at: now,
        }
    }

    fn capacity_scaled(limit: RateLimit) -> u64 {
        limit.burst.saturating_mul(limit.per_ticks)
    }

    /// Scaled tokens the bucket would hold at `now` (before any admission).
    fn tokens_at(&self, now: Tick) -> u64 {
        if now <= self.refilled_at {
            // Ticks are supplied by the caller and need not be globally
            // monotonic across sessions; an out-of-order arrival earns no
            // refill but is still charged.
            return self.tokens;
        }
        let elapsed = now - self.refilled_at;
        self.tokens
            .saturating_add(elapsed.saturating_mul(self.limit.requests))
            .min(Self::capacity_scaled(self.limit))
    }

    /// Number of whole requests admissible at `now`, without admitting any.
    #[cfg(test)]
    pub fn available(&self, now: Tick) -> u64 {
        self.tokens_at(now) / self.limit.per_ticks
    }

    /// Attempts to admit one request at tick `now`. Returns `true` (and
    /// consumes one request's worth of tokens) when the bucket holds enough,
    /// `false` (consuming nothing) when the tenant is over its rate.
    pub fn try_admit(&mut self, now: Tick) -> bool {
        self.tokens = self.tokens_at(now);
        self.refilled_at = self.refilled_at.max(now);
        if self.tokens >= self.limit.per_ticks {
            self.tokens -= self.limit.per_ticks;
            true
        } else {
            false
        }
    }
}

/// Per-tenant serving configuration: a priority class plus optional admission
/// control.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantConfig {
    priority: Priority,
    rate: Option<RateLimit>,
}

impl TenantConfig {
    /// Creates a configuration with the given priority and no rate limit.
    pub fn new(priority: Priority) -> Self {
        Self {
            priority,
            rate: None,
        }
    }

    /// Attaches a token-bucket rate limit.
    pub fn with_rate_limit(mut self, limit: RateLimit) -> Self {
        self.rate = Some(limit);
        self
    }

    /// The tenant's priority class.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The tenant's rate limit, if any.
    pub fn rate_limit(&self) -> Option<RateLimit> {
        self.rate
    }
}

/// Lifetime admission and completion counters of one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests offered to [`super::AttentionServer::submit`] for this tenant's
    /// sessions (admitted and throttled alike; malformed requests rejected
    /// before admission control do not count).
    pub offered: u64,
    /// Requests admitted past the token bucket into a session queue.
    pub admitted: u64,
    /// Requests rejected by the token bucket.
    pub throttled: u64,
    /// Admitted requests that completed (responses returned).
    pub completed: u64,
    /// Completed requests that missed their deadline.
    pub deadline_misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ids_and_priorities_render() {
        assert_eq!(TenantId::from_raw(4).to_string(), "t4");
        assert_eq!(TenantId::from_raw(4).raw(), 4);
        assert_eq!(TenantId::DEFAULT.raw(), 0);
        assert_eq!(Priority::High.to_string(), "high");
        assert_eq!(Priority::Normal.to_string(), "normal");
        assert_eq!(Priority::Background.to_string(), "background");
        assert_eq!(Priority::default(), Priority::Normal);
        assert!(Priority::High.weight() > Priority::Normal.weight());
        assert!(Priority::Normal.weight() > Priority::Background.weight());
    }

    #[test]
    fn rate_limit_rejects_zero_components() {
        assert!(RateLimit::new(0, 10, 1).is_err());
        assert!(RateLimit::new(1, 0, 1).is_err());
        assert!(RateLimit::new(1, 10, 0).is_err());
        let limit = RateLimit::new(3, 10, 5).unwrap();
        assert_eq!(
            (limit.requests(), limit.per_ticks(), limit.burst()),
            (3, 10, 5)
        );
    }

    #[test]
    fn bucket_starts_full_and_refills_exactly() {
        // 2 requests per 10 ticks, burst 3.
        let limit = RateLimit::new(2, 10, 3).unwrap();
        let mut bucket = TokenBucket::new(limit, 0);
        assert_eq!(bucket.available(0), 3);
        assert!(bucket.try_admit(0));
        assert!(bucket.try_admit(0));
        assert!(bucket.try_admit(0));
        assert!(!bucket.try_admit(0), "burst exhausted");
        // Refill is 2 scaled tokens per tick against a 10-token cost: the next
        // whole request exists exactly at +5 ticks.
        assert_eq!(bucket.available(4), 0);
        assert_eq!(bucket.available(5), 1);
        assert!(!bucket.try_admit(4));
        assert!(bucket.try_admit(5));
        assert!(!bucket.try_admit(5));
    }

    #[test]
    fn bucket_caps_at_burst_after_long_idle() {
        let limit = RateLimit::new(1, 2, 4).unwrap();
        let mut bucket = TokenBucket::new(limit, 0);
        assert_eq!(bucket.available(1_000_000), 4, "idle never exceeds burst");
        for _ in 0..4 {
            assert!(bucket.try_admit(1_000_000));
        }
        assert!(!bucket.try_admit(1_000_000));
    }

    #[test]
    fn out_of_order_ticks_earn_no_refill() {
        let limit = RateLimit::new(1, 10, 1).unwrap();
        let mut bucket = TokenBucket::new(limit, 100);
        assert!(bucket.try_admit(100));
        // An arrival stamped before the last refill point cannot mint tokens.
        assert!(!bucket.try_admit(50));
        assert!(!bucket.try_admit(109));
        assert!(bucket.try_admit(110));
    }

    #[test]
    fn tenant_config_builder_roundtrips() {
        let config = TenantConfig::default();
        assert_eq!(config.priority(), Priority::Normal);
        assert!(config.rate_limit().is_none());
        let limit = RateLimit::new(5, 100, 10).unwrap();
        let config = TenantConfig::new(Priority::High).with_rate_limit(limit);
        assert_eq!(config.priority(), Priority::High);
        assert_eq!(config.rate_limit(), Some(limit));
    }

    #[test]
    fn burst_admits_back_to_back_then_waits_for_a_refill() {
        // 1 request per 100 ticks, burst of 2: the burst admits two back-to-back,
        // the third must wait for a refill.
        let limit = RateLimit::new(1, 100, 2).unwrap();
        let mut bucket = TokenBucket::new(limit, 0);
        assert!(bucket.try_admit(0));
        assert!(bucket.try_admit(0));
        assert!(!bucket.try_admit(50));
        assert!(bucket.try_admit(100));
    }

    /// Strategy producing a valid rate limit and a monotone tick trace to offer
    /// against it.
    fn rate_limit_case() -> impl Strategy<Value = (RateLimit, Vec<u64>)> {
        (
            1u64..8,
            1u64..200,
            1u64..6,
            prop::collection::vec(0u64..50, 1..120),
        )
            .prop_map(|(requests, per_ticks, burst, gaps)| {
                let limit = RateLimit::new(requests, per_ticks, burst).unwrap();
                let mut now = 0u64;
                let ticks = gaps
                    .into_iter()
                    .map(|gap| {
                        now += gap;
                        now
                    })
                    .collect();
                (limit, ticks)
            })
    }

    proptest! {
        /// The token bucket never admits more than `burst + rate * elapsed` requests
        /// over any trace, and an idle bucket refills to exactly its burst capacity —
        /// the integer arithmetic neither leaks nor banks fractional tokens.
        #[test]
        fn token_bucket_never_exceeds_its_contracted_rate((limit, ticks) in rate_limit_case()) {
            let start = ticks[0];
            let mut bucket = TokenBucket::new(limit, start);
            let mut admitted = 0u64;
            for &now in &ticks {
                if bucket.try_admit(now) {
                    admitted += 1;
                }
            }
            let elapsed = ticks.last().unwrap() - start;
            // Upper bound: the initial burst plus every token the elapsed time can
            // mint (integer refill: elapsed * requests / per_ticks, rounded up for
            // the partial token the last admit may have consumed).
            let minted = elapsed * limit.requests() / limit.per_ticks() + 1;
            prop_assert!(
                admitted <= limit.burst() + minted,
                "admitted {admitted} > burst {} + minted {minted}",
                limit.burst()
            );
        }

        /// After draining, a bucket left idle for long enough refills back to exactly
        /// `burst` available admissions — never more.
        #[test]
        fn token_bucket_refills_exactly_to_burst((limit, _) in rate_limit_case(), idle in 1u64..4) {
            let mut bucket = TokenBucket::new(limit, 0);
            while bucket.try_admit(0) {}
            prop_assert_eq!(bucket.available(0), 0);
            // Enough idle time to mint the full burst several times over.
            let later = idle * limit.burst() * limit.per_ticks() / limit.requests() + limit.per_ticks();
            prop_assert_eq!(bucket.available(later), limit.burst());
            let mut readmitted = 0u64;
            while bucket.try_admit(later) {
                readmitted += 1;
            }
            prop_assert_eq!(readmitted, limit.burst());
        }
    }

    #[test]
    fn token_bucket_ignores_time_running_backwards() {
        let limit = RateLimit::new(1, 100, 1).unwrap();
        let mut bucket = TokenBucket::new(limit, 1_000);
        assert!(bucket.try_admit(1_000));
        // An out-of-order earlier tick earns no refill and admits nothing.
        assert!(!bucket.try_admit(500));
        assert!(!bucket.try_admit(1_050));
        assert!(bucket.try_admit(1_100));
    }
}
