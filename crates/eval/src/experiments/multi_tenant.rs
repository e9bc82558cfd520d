//! Multi-tenant QoS serving: priority isolation and cost-aware cache admission.
//!
//! The serve layer's tenancy policies (weighted-fair flushing, token-bucket
//! admission, cost-aware preprocessing-cache admission) are replayed through
//! [`a3_sim::ServerSim`], which drives the real server on a cycle clock. Two
//! sweeps:
//!
//! * **Isolation** — one high-priority tenant shares the unit with a growing set
//!   of rate-limited background tenants that offer up to 10x their admitted
//!   rate, under tight and loose deadline mixes. The acceptance criterion is
//!   that the high-priority tenant's p99 latency under the overload stays
//!   within 10% of its unloaded p99 (see [`isolation_p99_ratio`]).
//! * **Cache admission** — a Zipf-skewed request mix over cheap-to-prepare and
//!   expensive-to-prepare memories, served once under plain LRU and once under
//!   the cost-aware (GDSF) policy. Under Zipf(1.0) the cost-aware cache must
//!   beat LRU end to end (see [`cost_aware_vs_lru_cycles_ratio`]).
//!
//! Both headline numbers are exported as deterministic helpers so the perf
//! gate (`crates/eval/src/bench_check.rs`) can commit them to
//! `BENCH_BASELINE.tsv` as gated `ratio/*` rows.

use a3_core::backend::{ApproximateBackend, ExactBackend};
use a3_core::Matrix;
use a3_sim::{
    A3Config, BatchPolicy, CacheAdmission, MemoryCache, PipelineModel, Priority, RateLimit,
    ServerSim, SimReport, TenantConfig, TraceRequest,
};

use crate::report::{fmt_ratio, Table};
use crate::settings::EvalSettings;

/// Row dimension shared by every memory in the sweeps (the paper's `d`).
const D: usize = 64;

/// Requests the high-priority tenant submits in an isolation replay.
const HIGH_REQUESTS: usize = 64;

/// Arrival gap of the high-priority tenant, in cycles.
const HIGH_GAP: u64 = 500;

/// Background tenants are admitted at one request per this many cycles.
const BACKGROUND_ADMIT_TICKS: u64 = 2_000;

/// Batch window of the isolation replays: wide enough that a flushed
/// high-priority batch dwarfs the short background batches that may be
/// occupying the (non-preemptive) unit when it becomes due.
const BATCH_WINDOW: u64 = 4_096;

/// Maximum batch size of every replay in this experiment.
const MAX_BATCH: usize = 16;

/// Expensive-to-prepare memories in the cache sweep (the popular ones).
const LARGE_SESSIONS: usize = 4;

/// Rows per expensive memory.
const LARGE_ROWS: usize = 256;

/// Cheap-to-prepare memories in the cache sweep.
const SMALL_SESSIONS: usize = 8;

/// Rows per cheap memory.
const SMALL_ROWS: usize = 32;

/// Arrival gap of the cache-sweep trace, in cycles.
const CACHE_GAP: u64 = 2_000;

/// Requests the exported [`cost_aware_vs_lru_cycles_ratio`] helper replays.
const CACHE_BENCH_REQUESTS: usize = 160;

/// SplitMix64 finalizer; the deterministic hash behind every synthetic input.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic hash-noise memory: `n` rows of dimension [`D`], a few rows
/// dominant so approximate candidate selection has real structure.
fn memory(n: usize, seed: u64) -> (Matrix, Matrix) {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..D)
                .map(|j| {
                    let h = splitmix(seed ^ ((i as u64) << 20) ^ j as u64);
                    let noise = ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
                    if i % 23 == 7 {
                        0.7 + 0.2 * noise
                    } else {
                        -0.1 + 0.2 * noise
                    }
                })
                .collect()
        })
        .collect();
    let keys = Matrix::from_rows(rows).expect("non-empty memory");
    let values = keys.clone();
    (keys, values)
}

/// Deterministic query of dimension [`D`], varied per request.
fn query(seed: u64) -> Vec<f32> {
    (0..D)
        .map(|j| 0.25 + 0.02 * ((seed as usize * 7 + j) % 13) as f32)
        .collect()
}

/// Outcome of one isolation replay pair (unloaded vs loaded).
struct IsolationOutcome {
    unloaded_p99: u64,
    loaded_p99: u64,
    high_deadline_misses: u64,
    background_offered: u64,
    background_throttled: u64,
}

impl IsolationOutcome {
    /// Loaded over unloaded p99 of the high-priority tenant.
    fn p99_ratio(&self) -> f64 {
        self.loaded_p99 as f64 / self.unloaded_p99.max(1) as f64
    }
}

/// Replays the high-priority tenant's trace alone, then again with
/// `background_tenants` rate-limited background tenants each offering
/// `overload`x their admitted rate, and reports the two p99s.
fn isolation_case(
    background_tenants: usize,
    overload: u64,
    deadline_budget: u64,
) -> IsolationOutcome {
    let backend = ExactBackend;
    let sim = ServerSim::new(
        PipelineModel::new(A3Config::paper_base()),
        BatchPolicy::new(MAX_BATCH, BATCH_WINDOW).expect("max_batch >= 1"),
    );

    // Session 0 belongs to the high-priority tenant (tenant 0, so weighted-fair
    // ties at the same virtual time also break in its favor); one session per
    // background tenant after it.
    let mut memories = vec![memory(64, 11)];
    for b in 0..background_tenants {
        memories.push(memory(64, 100 + b as u64));
    }
    let session_tenants: Vec<usize> = (0..memories.len()).collect();
    let mut tenants = vec![TenantConfig::new(Priority::High)];
    for _ in 0..background_tenants {
        tenants.push(
            TenantConfig::new(Priority::Background).with_rate_limit(
                RateLimit::new(1, BACKGROUND_ADMIT_TICKS, 2).expect("non-zero rate"),
            ),
        );
    }

    let high_trace: Vec<TraceRequest> = (0..HIGH_REQUESTS)
        .map(|i| {
            let arrival = i as u64 * HIGH_GAP;
            TraceRequest::new(0, query(i as u64), arrival).with_deadline(arrival + deadline_budget)
        })
        .collect();
    let span = HIGH_REQUESTS as u64 * HIGH_GAP;
    let mut loaded_trace = high_trace.clone();
    let offered_gap = (BACKGROUND_ADMIT_TICKS / overload).max(1);
    for b in 0..background_tenants {
        // Stagger tenants so their floods don't arrive in lockstep.
        let mut arrival = 17 * (b as u64 + 1);
        while arrival < span {
            loaded_trace.push(TraceRequest::new(1 + b, query(1_000 + arrival), arrival));
            arrival += offered_gap;
        }
    }

    // Warm caches: isolation measures scheduling, not preprocessing.
    let warm = |memories: &[(Matrix, Matrix)]| {
        let mut cache = MemoryCache::new(memories.len());
        for (keys, values) in memories {
            cache
                .get_or_prepare(&backend, keys, values)
                .expect("valid shapes");
        }
        cache
    };

    let mut cache = warm(&memories[..1]);
    let (_, unloaded, _) = sim.replay_multi_tenant(
        &backend,
        &mut cache,
        &memories[..1],
        &session_tenants[..1],
        &tenants[..1],
        &high_trace,
    );
    let mut cache = warm(&memories);
    let (_, loaded, _) = sim.replay_multi_tenant(
        &backend,
        &mut cache,
        &memories,
        &session_tenants,
        &tenants,
        &loaded_trace,
    );

    IsolationOutcome {
        unloaded_p99: unloaded[0].p99_latency_cycles,
        loaded_p99: loaded[0].p99_latency_cycles,
        high_deadline_misses: loaded[0].deadline_misses,
        background_offered: loaded[1..].iter().map(|t| t.offered).sum(),
        background_throttled: loaded[1..].iter().map(|t| t.throttled).sum(),
    }
}

/// The acceptance-criterion isolation ratio, deterministic for the perf gate:
/// one background tenant floods at 10x its admitted rate; the returned value is
/// the high-priority tenant's loaded p99 over its unloaded p99 (target: within
/// 1.10).
pub fn isolation_p99_ratio() -> f64 {
    isolation_case(1, 10, 12_000).p99_ratio()
}

/// Maps a deterministic sample to a session index under a Zipf(`skew`)
/// popularity law where rank 1 (most popular) is session 0 — by construction
/// the expensive-to-prepare memories hold the low session indices.
fn zipf_session(sample: u64, skew: f64, sessions: usize) -> usize {
    let u = (splitmix(sample) >> 11) as f64 / (1u64 << 53) as f64;
    let total: f64 = (1..=sessions).map(|k| 1.0 / (k as f64).powf(skew)).sum();
    let mut acc = 0.0;
    for k in 1..=sessions {
        acc += 1.0 / (k as f64).powf(skew) / total;
        if u < acc {
            return k - 1;
        }
    }
    sessions - 1
}

/// One cache-admission replay pair: the same Zipf-skewed trace served under
/// plain LRU and under cost-aware (GDSF) admission, cold caches both.
fn cache_case(skew: f64, capacity: usize, requests: usize, seed: u64) -> (SimReport, SimReport) {
    let backend = ApproximateBackend::conservative();
    let sim = ServerSim::new(
        PipelineModel::new(A3Config::paper_conservative()),
        BatchPolicy::new(4, 512).expect("max_batch >= 1"),
    );
    let mut memories = Vec::new();
    for s in 0..LARGE_SESSIONS {
        memories.push(memory(LARGE_ROWS, 300 + s as u64));
    }
    for s in 0..SMALL_SESSIONS {
        memories.push(memory(SMALL_ROWS, 400 + s as u64));
    }
    let trace: Vec<TraceRequest> = (0..requests)
        .map(|i| {
            let session = zipf_session(seed ^ splitmix(i as u64), skew, memories.len());
            TraceRequest::new(session, query(i as u64), i as u64 * CACHE_GAP)
        })
        .collect();
    let replay = |admission: CacheAdmission| {
        let mut cache = MemoryCache::with_admission(capacity, admission);
        sim.replay(&backend, &mut cache, &memories, &trace)
    };
    (
        replay(CacheAdmission::Lru),
        replay(CacheAdmission::CostAware),
    )
}

/// The acceptance-criterion cache ratio, deterministic for the perf gate:
/// cost-aware end-to-end cycles over LRU end-to-end cycles under Zipf(1.0)
/// with a cache four entries deep (target: below 1.0).
pub fn cost_aware_vs_lru_cycles_ratio() -> f64 {
    let (lru, cost_aware) = cache_case(1.0, 4, CACHE_BENCH_REQUESTS, 17);
    cost_aware.end_to_end_cycles() as f64 / lru.end_to_end_cycles().max(1) as f64
}

/// Runs the multi-tenant QoS sweeps: priority isolation over background-tenant
/// count x overload x deadline mix, and cost-aware cache admission vs LRU over
/// popularity skew x cache capacity.
pub fn multi_tenant(settings: &EvalSettings) -> Vec<Table> {
    let mut isolation = Table::new(
        "Multi-tenant isolation: high-priority p99 under rate-limited background overload",
        &[
            "Bg tenants",
            "Overload",
            "Deadline mix",
            "High p99 unloaded (cyc)",
            "High p99 loaded (cyc)",
            "p99 ratio",
            "High misses",
            "Bg offered",
            "Bg throttled",
        ],
    );
    let deadline_mixes: [(&str, u64); 2] = [("tight", 6_000), ("loose", 12_000)];
    for &background_tenants in &[1usize, 2, 4] {
        for &overload in &[1u64, 10] {
            for &(mix, budget) in &deadline_mixes {
                let outcome = isolation_case(background_tenants, overload, budget);
                isolation.push_row(vec![
                    format!("{background_tenants}"),
                    format!("{overload}x"),
                    mix.to_owned(),
                    format!("{}", outcome.unloaded_p99),
                    format!("{}", outcome.loaded_p99),
                    fmt_ratio(outcome.p99_ratio()),
                    format!("{}", outcome.high_deadline_misses),
                    format!("{}", outcome.background_offered),
                    format!("{}", outcome.background_throttled),
                ]);
            }
        }
    }

    let mut admission = Table::new(
        "Cost-aware cache admission vs LRU under Zipf-skewed popularity (cold cache)",
        &[
            "Zipf skew",
            "Capacity",
            "LRU cycles",
            "LRU misses",
            "Cost-aware cycles",
            "Cost-aware misses",
            "Cycles ratio",
        ],
    );
    let requests = (settings.cases_per_workload * 8).max(64);
    for &skew in &[0.5f64, 1.0, 1.5] {
        for &capacity in &[4usize, 6] {
            let (lru, cost_aware) = cache_case(skew, capacity, requests, settings.seed);
            admission.push_row(vec![
                format!("{skew:.1}"),
                format!("{capacity}"),
                format!("{}", lru.end_to_end_cycles()),
                format!("{}", lru.cache_misses),
                format!("{}", cost_aware.end_to_end_cycles()),
                format!("{}", cost_aware.cache_misses),
                fmt_ratio(
                    cost_aware.end_to_end_cycles() as f64 / lru.end_to_end_cycles().max(1) as f64,
                ),
            ]);
        }
    }

    vec![isolation, admission]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolation_holds_under_ten_x_background_overload() {
        let ratio = isolation_p99_ratio();
        assert!(
            ratio <= 1.10,
            "high-priority p99 under 10x background overload must stay within 10% \
             of unloaded (got {ratio:.3})"
        );
        assert!(ratio >= 1.0 - 1e-9, "load cannot make the tenant faster");
    }

    #[test]
    fn cost_aware_admission_beats_lru_under_zipf() {
        let ratio = cost_aware_vs_lru_cycles_ratio();
        assert!(
            ratio < 1.0,
            "cost-aware admission must beat LRU end to end under Zipf(1.0) \
             (got {ratio:.3})"
        );
    }

    #[test]
    fn overloaded_background_tenants_are_throttled_not_served() {
        let outcome = isolation_case(2, 10, 12_000);
        assert!(outcome.background_offered > 0);
        // At 10x the admitted rate, the vast majority of background arrivals
        // must be dropped at admission (token buckets, not queues, absorb them).
        assert!(
            outcome.background_throttled * 10 >= outcome.background_offered * 8,
            "expected >= 80% of background arrivals throttled: {} of {}",
            outcome.background_throttled,
            outcome.background_offered
        );
    }

    #[test]
    fn sweeps_cover_every_combination() {
        let tables = multi_tenant(&EvalSettings::fast());
        assert_eq!(tables.len(), 2);
        // 3 background-tenant counts x 2 overloads x 2 deadline mixes.
        assert_eq!(tables[0].len(), 3 * 2 * 2);
        // 3 skews x 2 capacities.
        assert_eq!(tables[1].len(), 3 * 2);
    }

    #[test]
    fn zipf_sampler_is_skewed_toward_low_ranks() {
        let sessions = LARGE_SESSIONS + SMALL_SESSIONS;
        let mut counts = vec![0u64; sessions];
        for i in 0..4_000u64 {
            counts[zipf_session(i, 1.0, sessions)] += 1;
        }
        // Rank 1 strictly dominates, and the popular (large) sessions together
        // take the majority of the traffic.
        assert!(counts[0] > counts[sessions - 1] * 4);
        let large: u64 = counts[..LARGE_SESSIONS].iter().sum();
        let small: u64 = counts[LARGE_SESSIONS..].iter().sum();
        assert!(large > small);
    }
}
