//! Property-based tests for the multi-tenant serving layer: token-bucket
//! admission, weighted-fair flushing, and session lookup.

use std::collections::BTreeMap;

use a3_core::serve::{
    BatchPolicy, Priority, QueuedRequest, RateLimit, RequestId, Scheduler, SessionId, TenantId,
    TokenBucket,
};
use proptest::prelude::*;

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

    /// Under saturation (every session always has queued work), the weighted-fair
    /// scheduler starves no tenant: over any long pop sequence, every tenant's
    /// share of flushed requests is at least half its weight fraction.
    #[test]
    fn weighted_fair_flushing_starves_no_tenant(
        weights in prop::collection::vec(1u64..9, 2..5),
        rounds in 20usize..60,
    ) {
        let mut scheduler = Scheduler::new(BatchPolicy::per_request());
        for (t, &w) in weights.iter().enumerate() {
            let tenant = TenantId::from_raw(t as u64);
            scheduler.set_tenant_weight(tenant, w);
            scheduler.assign_session(SessionId::from_raw(t as u64), tenant);
        }
        // Saturate: every tenant has one session with `rounds` queued requests.
        let mut id = 0u64;
        for (t, _) in weights.iter().enumerate() {
            for _ in 0..rounds {
                scheduler.enqueue(QueuedRequest {
                    id: RequestId::from_raw(id),
                    session: SessionId::from_raw(t as u64),
                    query: vec![0.0],
                    arrival: 0,
                    deadline: None,
                });
                id += 1;
            }
        }
        // Observe a window smaller than any single tenant's backlog, so the
        // shares reflect the fair schedule, not queue exhaustion.
        let window = rounds;
        let mut popped = vec![0u64; weights.len()];
        let mut seen = 0usize;
        while seen < window {
            for batch in scheduler.pop_due(0) {
                if seen < window {
                    popped[batch.session.raw() as usize] += batch.requests.len() as u64;
                    seen += batch.requests.len();
                }
            }
        }
        let total_weight: u64 = weights.iter().sum();
        for (t, &w) in weights.iter().enumerate() {
            let fair_share = window as f64 * w as f64 / total_weight as f64;
            prop_assert!(
                popped[t] as f64 >= (fair_share / 2.0).floor(),
                "tenant {t} (weight {w}) got {} of {window} pops, fair share {fair_share:.1}",
                popped[t]
            );
        }
    }

    /// Session lookup is observationally equivalent to a flat `BTreeMap` over
    /// arbitrary register/lookup traces: same lookups, same length, same
    /// id-ordered iteration.
    #[test]
    fn session_lookup_matches_a_flat_map(
        ops in prop::collection::vec((0u64..40, 0u32..10), 1..200),
    ) {
        // Session handles are only constructible through a server; model the
        // equivalence on the id set by driving register against a flat shadow map.
        use a3_core::backend::ExactBackend;
        use a3_core::serve::{AttentionServer, MemoryConfig};
        use a3_core::Matrix;

        let keys = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let mut server = AttentionServer::builder(Box::new(ExactBackend)).build();
        let mut flat: BTreeMap<u64, ()> = BTreeMap::new();
        let mut issued: Vec<SessionId> = Vec::new();
        for (pick, coin) in ops {
            // ~70% inserts, 30% probes.
            if coin < 7 || issued.is_empty() {
                let id = server.register(MemoryConfig::new(&keys, &keys)).unwrap();
                flat.insert(id.raw(), ());
                issued.push(id);
            } else {
                // Lookup of an arbitrary (possibly never-issued) id must agree
                // with the flat map.
                let probe = SessionId::from_raw(pick);
                prop_assert_eq!(server.session(probe).is_some(), flat.contains_key(&pick));
            }
        }
        let iterated: Vec<u64> = server.sessions().map(|h| h.id().raw()).collect();
        let flat_ids: Vec<u64> = flat.keys().copied().collect();
        prop_assert_eq!(iterated, flat_ids);
        // Every issued id resolves.
        for id in issued {
            prop_assert!(server.session(id).is_some());
        }
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

#[test]
fn priority_weights_are_monotone() {
    assert!(Priority::High.weight() > Priority::Normal.weight());
    assert!(Priority::Normal.weight() > Priority::Background.weight());
    assert_eq!(Priority::default(), Priority::Normal);
}
