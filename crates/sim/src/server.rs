//! Discrete-event queue model of the request-oriented serving front-end.
//!
//! [`ServerSim`] replays a trace of single-query requests through a real
//! [`AttentionServer`], interpreting ticks as accelerator clock cycles: the server
//! decides admission, tenant accounting and weighted-fair dynamic batching, and the
//! simulator keeps only its cycle clock, charging every component of per-request
//! latency:
//!
//! * **batching wait** — the gap between a request's arrival and its batch's flush
//!   (full / window / deadline trigger, the server's own decision);
//! * **queueing delay** — time the flushed batch spends waiting for the single A3
//!   unit to drain earlier batches;
//! * **preprocessing on miss** — host-side sort/quantization cycles when the batch's
//!   memory misses the [`MemoryCache`] (a warm memory pays zero);
//! * **accelerator cycles** — pipelined batch drain from the cycle model
//!   (`latency(first) + Σ throughput(rest)`), with per-request completion at its
//!   drain position.
//!
//! The replay extends [`SimReport`] with queue-depth, batch-fill and deadline-miss
//! statistics; per-request detail is available from [`ServerSim::replay_detailed`].

use a3_core::attention::AttentionResult;
use a3_core::backend::{ComputeBackend, MemoryCache, PreparedMemory, PreparedState};
use a3_core::serve::{
    AttentionServer, BatchPolicy, MemoryConfig, Request, SessionId, TenantConfig, TenantId,
};
use a3_core::{AttentionError, Matrix, ServeError};
use serde::{Deserialize, Serialize};

use crate::pipeline::{Drain, ModuleActivity, PipelineModel, SimReport};

/// One request of a replayable serving trace. `session` indexes the memory slice
/// handed to [`ServerSim::replay`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRequest {
    /// Index of the key/value memory this request attends over.
    pub session: usize,
    /// The query vector.
    pub query: Vec<f32>,
    /// Arrival time in accelerator cycles.
    pub arrival_cycle: u64,
    /// Optional absolute completion deadline in cycles.
    pub deadline_cycle: Option<u64>,
}

impl TraceRequest {
    /// Creates a request with no deadline.
    pub fn new(session: usize, query: Vec<f32>, arrival_cycle: u64) -> Self {
        Self {
            session,
            query,
            arrival_cycle,
            deadline_cycle: None,
        }
    }

    /// Attaches an absolute deadline cycle.
    pub fn with_deadline(mut self, deadline_cycle: u64) -> Self {
        self.deadline_cycle = Some(deadline_cycle);
        self
    }
}

/// Scheduling history of one replayed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// Index of the request in the replayed trace.
    pub trace_index: usize,
    /// The memory it attended over.
    pub session: usize,
    /// Arrival cycle (from the trace).
    pub arrival_cycle: u64,
    /// Cycle at which its batch started executing (preprocessing included).
    pub dispatched_cycle: u64,
    /// Cycle at which its result drained out of the pipeline.
    pub completion_cycle: u64,
    /// The request's deadline, if it carried one.
    pub deadline_cycle: Option<u64>,
    /// Ordinal of the executed batch that served it.
    pub batch: usize,
}

impl RequestOutcome {
    /// End-to-end latency in cycles: batching wait + queueing + preprocessing +
    /// accelerator drain.
    pub fn latency_cycles(&self) -> u64 {
        self.completion_cycle - self.arrival_cycle
    }

    /// True when the request carried a deadline and completed after it.
    pub fn missed_deadline(&self) -> bool {
        self.deadline_cycle
            .is_some_and(|d| self.completion_cycle > d)
    }
}

/// Per-tenant outcome aggregation of one multi-tenant replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Index of the tenant in the spec slice handed to
    /// [`ServerSim::replay_multi_tenant`].
    pub tenant: usize,
    /// Trace requests belonging to this tenant's sessions.
    pub offered: u64,
    /// Requests the tenant's token bucket admitted (everything, without a rate).
    pub admitted: u64,
    /// Requests dropped at admission.
    pub throttled: u64,
    /// Admitted requests that completed (always equals `admitted`: every queue
    /// flushes).
    pub completed: u64,
    /// Completed requests that missed their deadline.
    pub deadline_misses: u64,
    /// Mean end-to-end latency of the tenant's completed requests (0 when none).
    pub avg_latency_cycles: f64,
    /// 99th-percentile end-to-end latency of the tenant's completed requests.
    pub p99_latency_cycles: u64,
}

/// Discrete-event model of one A3 unit behind a dynamic-batching request queue.
#[derive(Debug, Clone)]
pub struct ServerSim {
    model: PipelineModel,
    policy: BatchPolicy,
}

impl ServerSim {
    /// Creates a server model from a cycle model and a batching policy.
    pub fn new(model: PipelineModel, policy: BatchPolicy) -> Self {
        Self { model, policy }
    }

    /// The underlying cycle model.
    pub fn model(&self) -> &PipelineModel {
        &self.model
    }

    /// The batching policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Replays `trace` against `memories` through `backend`, forming batches with a
    /// real [`AttentionServer`], and aggregates the result. See
    /// [`ServerSim::replay_detailed`] for per-request outcomes.
    ///
    /// # Panics
    ///
    /// Panics if a trace request references a session outside `memories`, a problem
    /// does not fit the synthesized configuration, or shapes are inconsistent.
    pub fn replay(
        &self,
        backend: &dyn ComputeBackend,
        cache: &mut MemoryCache,
        memories: &[(Matrix, Matrix)],
        trace: &[TraceRequest],
    ) -> SimReport {
        self.replay_detailed(backend, cache, memories, trace).0
    }

    /// [`ServerSim::replay`], also returning one [`RequestOutcome`] per trace request
    /// (in trace order).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ServerSim::replay`].
    pub fn replay_detailed(
        &self,
        backend: &dyn ComputeBackend,
        cache: &mut MemoryCache,
        memories: &[(Matrix, Matrix)],
        trace: &[TraceRequest],
    ) -> (SimReport, Vec<RequestOutcome>) {
        // One unlimited normal-priority tenant owning every session degenerates
        // to the legacy single-tenant schedule (one weighted-fair lane).
        let session_tenants = vec![0usize; memories.len()];
        let (report, _, outcomes) = self.replay_multi_tenant(
            backend,
            cache,
            memories,
            &session_tenants,
            &[TenantConfig::default()],
            trace,
        );
        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("no rate limit: every trace request is admitted and completes"))
            .collect();
        (report, outcomes)
    }

    /// Replays `trace` with tenancy: `session_tenants[s]` names the tenant (an
    /// index into `tenants`) owning memory `s`. The trace runs through a real
    /// [`AttentionServer`] with tenant `t` registered as
    /// `TenantId::from_raw(t)`, so each tenant's priority class weights the
    /// server's fair flush order and its optional rate limit drops over-rate
    /// arrivals at admission. The server's own backend computes nothing: each
    /// batch it forms is priced on `backend`, with residency in `cache`.
    ///
    /// Returns the aggregate report over *admitted* requests, one
    /// [`TenantReport`] per tenant, and one `Option<RequestOutcome>` per trace
    /// request (`None` for throttled arrivals).
    ///
    /// # Panics
    ///
    /// Panics if a trace request references a session outside `memories`,
    /// `session_tenants` does not cover `memories`, a session names a tenant
    /// outside `tenants`, a problem does not fit the synthesized configuration,
    /// or shapes are inconsistent.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_multi_tenant(
        &self,
        backend: &dyn ComputeBackend,
        cache: &mut MemoryCache,
        memories: &[(Matrix, Matrix)],
        session_tenants: &[usize],
        tenants: &[TenantConfig],
        trace: &[TraceRequest],
    ) -> (SimReport, Vec<TenantReport>, Vec<Option<RequestOutcome>>) {
        assert_eq!(
            session_tenants.len(),
            memories.len(),
            "session_tenants must name one tenant per memory"
        );
        for (session, &tenant) in session_tenants.iter().enumerate() {
            assert!(
                tenant < tenants.len(),
                "session {session} references tenant {tenant} but only {} tenants are specified",
                tenants.len()
            );
        }
        for request in trace {
            assert!(
                request.session < memories.len(),
                "trace request references session {} but only {} memories are registered",
                request.session,
                memories.len()
            );
        }
        for (keys, _) in memories {
            self.model.config().assert_fits(keys.rows(), keys.dim());
        }
        // Tenant `t` is `TenantId::from_raw(t)`, and the server issues session and
        // request ids densely from 0 in registration and admission order, so the
        // ids index `tenants`, `memories` and `trace_index` (the trace position of
        // each admitted request).
        let mut server = AttentionServer::builder(Box::new(ScheduleOnly))
            .batch_policy(self.policy)
            .build();
        for (t, &config) in tenants.iter().enumerate() {
            server.register_tenant(TenantId::from_raw(t as u64), config);
        }
        for ((keys, values), &tenant) in memories.iter().zip(session_tenants) {
            let config = MemoryConfig::new(keys, values).tenant(TenantId::from_raw(tenant as u64));
            server.register(config).expect("consistent memory shapes");
        }
        // Arrival order (stable for equal cycles, so replays are deterministic).
        let mut order: Vec<usize> = (0..trace.len()).collect();
        order.sort_by_key(|&i| trace[i].arrival_cycle);

        let mut trace_index: Vec<usize> = Vec::new();
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; trace.len()];
        let mut accel_free_at: u64 = 0;
        let mut batches: u64 = 0;
        let mut busy_cycles: u64 = 0;
        let mut preprocessing_cycles: u64 = 0;
        let mut cache_hits: u64 = 0;
        let mut cache_misses: u64 = 0;
        let mut activity = ModuleActivity::default();
        let mut throughput_sum: f64 = 0.0;
        let mut max_queue_depth: u64 = 0;
        let mut depth_samples: u64 = 0;
        let mut depth_sum: u64 = 0;

        let mut next_arrival = 0usize;
        loop {
            // Advance to the next event: an arrival or a server flush, whichever
            // is earlier.
            let arrival_at = order.get(next_arrival).map(|&i| trace[i].arrival_cycle);
            let now = match (arrival_at, server.next_due()) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(d)) => d,
                (Some(a), Some(d)) => a.min(d),
            };

            // Submit every request arriving at this cycle (before polling, so a
            // request arriving exactly at a flush tick rides the flushed batch).
            while next_arrival < order.len() && trace[order[next_arrival]].arrival_cycle == now {
                let index = order[next_arrival];
                let request = &trace[index];
                next_arrival += 1;
                match server.submit(Request {
                    session: SessionId::from_raw(request.session as u64),
                    query: request.query.clone(),
                    arrival: request.arrival_cycle,
                    deadline: request.deadline_cycle,
                }) {
                    Ok(_) => trace_index.push(index),
                    // Over-rate arrivals never queue.
                    Err(ServeError::Throttled { .. }) => continue,
                    Err(error) => panic!("trace request {index} was rejected: {error}"),
                }
                let depth = server.pending() as u64;
                max_queue_depth = max_queue_depth.max(depth);
                depth_samples += 1;
                depth_sum += depth;
            }

            // Price every batch the server flushes, in its weighted-fair order,
            // serialized on the single accelerator unit.
            for batch in server.poll(now).expect("the server's backend never fails") {
                let session = batch.session.raw() as usize;
                let (keys, values) = &memories[session];
                let (memory, hit) = cache
                    .get_or_prepare(backend, keys, values)
                    .expect("caller-provided shapes must be consistent");
                let prep = if hit {
                    cache_hits += 1;
                    0
                } else {
                    cache_misses += 1;
                    self.model
                        .preprocessing_cycles_for_ops(memory.preprocess_ops())
                };
                preprocessing_cycles += prep;

                let indices: Vec<usize> = batch
                    .responses
                    .iter()
                    .map(|response| trace_index[response.request.raw() as usize])
                    .collect();
                let queries: Vec<&[f32]> =
                    indices.iter().map(|&i| trace[i].query.as_slice()).collect();
                let drain = Drain::new(&[self.model.batch_costs(backend, &memory, &queries)], 0);

                // The batch cannot start before its requests exist, before the
                // server flushed it, or before the unit drains earlier batches.
                let ready = batch
                    .responses
                    .iter()
                    .map(|r| r.arrival)
                    .max()
                    .unwrap_or(batch.formed_at)
                    .max(batch.formed_at);
                let start = ready.max(accel_free_at);
                for ((&offset, &interval), &index) in
                    drain.completions.iter().zip(&drain.intervals).zip(&indices)
                {
                    outcomes[index] = Some(RequestOutcome {
                        trace_index: index,
                        session,
                        arrival_cycle: trace[index].arrival_cycle,
                        dispatched_cycle: start,
                        completion_cycle: start + prep + offset,
                        deadline_cycle: trace[index].deadline_cycle,
                        batch: batches as usize,
                    });
                    throughput_sum += interval as f64;
                }
                activity = activity.add(&drain.activity);
                busy_cycles += drain.total_cycles();
                accel_free_at = start + prep + drain.total_cycles();
                batches += 1;
            }
        }

        // Admission counts are the server's; completions and latencies are the
        // cycle clock's.
        let admitted: Vec<RequestOutcome> = outcomes.iter().filter_map(|o| *o).collect();
        let config = self.model.config();
        let tenant_reports: Vec<TenantReport> = (0..tenants.len())
            .map(|tenant| {
                let stats = server
                    .tenant_stats(TenantId::from_raw(tenant as u64))
                    .expect("every tenant is registered");
                let served: Vec<&RequestOutcome> = admitted
                    .iter()
                    .filter(|o| session_tenants[o.session] == tenant)
                    .collect();
                let latencies: Vec<u64> = served.iter().map(|o| o.latency_cycles()).collect();
                let latency = SimReport::from_latencies(&latencies, config);
                TenantReport {
                    tenant,
                    offered: stats.offered,
                    admitted: stats.admitted,
                    throttled: stats.throttled,
                    completed: served.len() as u64,
                    deadline_misses: served.iter().filter(|o| o.missed_deadline()).count() as u64,
                    avg_latency_cycles: latency.avg_latency_cycles,
                    p99_latency_cycles: latency.p99_latency_cycles,
                }
            })
            .collect();

        let latencies: Vec<u64> = admitted
            .iter()
            .map(RequestOutcome::latency_cycles)
            .collect();
        let mut report = SimReport::from_latencies(&latencies, config);
        if !admitted.is_empty() {
            let queries = admitted.len() as f64;
            let deadline_misses = admitted.iter().filter(|o| o.missed_deadline()).count() as u64;
            let first_arrival = admitted.iter().map(|o| o.arrival_cycle).min().unwrap_or(0);
            let last_completion = admitted
                .iter()
                .map(|o| o.completion_cycle)
                .max()
                .unwrap_or(0);
            let makespan = (last_completion - first_arrival).max(1);
            report = SimReport {
                total_cycles: busy_cycles,
                avg_throughput_cycles: throughput_sum / queries,
                throughput_ops_per_s: config.clock_hz * queries / makespan as f64,
                preprocessing_cycles,
                cache_hits,
                cache_misses,
                batches,
                avg_batch_fill: queries / batches as f64,
                max_queue_depth,
                // Every admitted request sampled the depth once.
                avg_queue_depth: depth_sum as f64 / depth_samples as f64,
                deadline_misses,
                deadline_miss_rate: deadline_misses as f64 / queries,
                activity,
                ..report
            };
        }
        (report, tenant_reports, outcomes)
    }
}

/// The backend of a replay's [`AttentionServer`]. The server only decides which
/// requests run together and when; the replay prices each batch on the caller's
/// backend, so this one keeps a plain copy of each memory and computes nothing.
struct ScheduleOnly;

impl ComputeBackend for ScheduleOnly {
    fn name(&self) -> String {
        "schedule-only".to_owned()
    }

    fn prepare(&self, keys: &Matrix, values: &Matrix) -> Result<PreparedMemory, AttentionError> {
        PreparedMemory::new(keys, values, 0, PreparedState::Exact)
    }

    fn attend_prepared(
        &self,
        _memory: &PreparedMemory,
        _query: &[f32],
    ) -> Result<AttentionResult, AttentionError> {
        Ok(AttentionResult {
            scores: Vec::new(),
            weights: Vec::new(),
            output: Vec::new(),
        })
    }
}

/// Deterministic open-loop "Poisson-ish" arrival times: exponential inter-arrival
/// gaps with the given mean, drawn from the seeded [`rand::rngs::StdRng`]. The same
/// seed always yields the same trace, which keeps examples and experiments
/// reproducible.
pub fn poisson_arrival_cycles(seed: u64, count: usize, mean_interval_cycles: f64) -> Vec<u64> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    assert!(
        mean_interval_cycles > 0.0,
        "mean_interval_cycles must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            // Inverse-CDF exponential sample; clamp away from ln(0).
            t += -mean_interval_cycles * (1.0 - u).max(1e-12).ln();
            t as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::A3Config;
    use a3_core::backend::{ApproximateBackend, ExactBackend, QuantizedBackend};
    use a3_core::serve::{Priority, RateLimit};

    fn memory(tag: f32, n: usize, d: usize) -> (Matrix, Matrix) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| {
                        if i % 17 == 3 {
                            0.8 + tag
                        } else {
                            tag - 0.1 + 0.02 * ((i * 7 + j * 3) % 9) as f32
                        }
                    })
                    .collect()
            })
            .collect();
        let keys = Matrix::from_rows(rows).unwrap();
        let values = keys.clone();
        (keys, values)
    }

    fn query(d: usize, salt: f32) -> Vec<f32> {
        (0..d).map(|j| 0.3 + salt + 0.01 * (j % 7) as f32).collect()
    }

    fn sim(policy: BatchPolicy) -> ServerSim {
        ServerSim::new(PipelineModel::new(A3Config::paper_conservative()), policy)
    }

    #[test]
    fn every_request_completes_with_consistent_cycles() {
        let memories = vec![memory(0.0, 64, 64), memory(1.0, 48, 64)];
        let trace: Vec<TraceRequest> = (0..12)
            .map(|i| {
                TraceRequest::new(i % 2, query(64, 0.01 * i as f32), (i as u64) * 50)
                    .with_deadline(i as u64 * 50 + 5_000)
            })
            .collect();
        let server = sim(BatchPolicy::new(4, 200).unwrap());
        let mut cache = MemoryCache::new(4);
        let (report, outcomes) = server.replay_detailed(
            &ApproximateBackend::conservative(),
            &mut cache,
            &memories,
            &trace,
        );
        assert_eq!(report.queries, 12);
        assert_eq!(outcomes.len(), 12);
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.trace_index, i);
            assert!(outcome.dispatched_cycle >= outcome.arrival_cycle);
            assert!(outcome.completion_cycle > outcome.dispatched_cycle);
            assert_eq!(outcome.session, i % 2);
        }
        assert!(report.batches >= 2, "two sessions cannot share a batch");
        assert!(report.avg_batch_fill > 1.0, "batches must actually form");
        assert_eq!(report.cache_misses, 2, "one preprocessing pass per memory");
        assert!(report.preprocessing_cycles > 0);
        assert!(report.max_queue_depth >= 1);
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(report.deadline_miss_rate, 0.0);
    }

    #[test]
    fn batching_beats_per_request_serving_in_busy_cycles() {
        let memories = vec![memory(0.0, 96, 64)];
        let trace: Vec<TraceRequest> = (0..16)
            .map(|i| TraceRequest::new(0, query(64, 0.005 * i as f32), (i as u64) * 10))
            .collect();
        let model = PipelineModel::new(A3Config::paper_base());
        let backend = QuantizedBackend::paper();

        let mut warm_cache = MemoryCache::new(2);
        warm_cache
            .get_or_prepare(&backend, &memories[0].0, &memories[0].1)
            .unwrap();
        let batched = ServerSim::new(model.clone(), BatchPolicy::new(16, 1_000).unwrap()).replay(
            &backend,
            &mut warm_cache,
            &memories,
            &trace,
        );

        let mut warm_cache = MemoryCache::new(2);
        warm_cache
            .get_or_prepare(&backend, &memories[0].0, &memories[0].1)
            .unwrap();
        let per_request = ServerSim::new(model, BatchPolicy::per_request()).replay(
            &backend,
            &mut warm_cache,
            &memories,
            &trace,
        );

        assert_eq!(batched.batches, 1);
        assert_eq!(per_request.batches, 16);
        assert!(
            batched.total_cycles < per_request.total_cycles,
            "pipelined dynamic batch ({}) must beat per-request serving ({})",
            batched.total_cycles,
            per_request.total_cycles
        );
        assert!(batched.end_to_end_cycles() < per_request.end_to_end_cycles());
    }

    #[test]
    fn deadline_misses_are_counted_under_overload() {
        let memories = vec![memory(0.0, 320, 64)];
        // Requests arrive every cycle with deadlines far tighter than one batch
        // drain; almost everything must miss.
        let trace: Vec<TraceRequest> = (0..8)
            .map(|i| TraceRequest::new(0, query(64, 0.0), i as u64).with_deadline(i as u64 + 10))
            .collect();
        let server = sim(BatchPolicy::new(8, 100).unwrap());
        let mut cache = MemoryCache::new(2);
        let report = server.replay(
            &ApproximateBackend::conservative(),
            &mut cache,
            &memories,
            &trace,
        );
        assert!(report.deadline_misses > 0);
        assert!(report.deadline_miss_rate > 0.0);
        assert!(report.p99_latency_cycles >= report.p50_latency_cycles);
    }

    #[test]
    fn queueing_delay_accumulates_when_the_unit_is_saturated() {
        let memories = vec![memory(0.0, 320, 64)];
        // Back-to-back single-request batches against a 320-row memory: each takes
        // ~3n+27 cycles, arrivals come every 10 cycles, so later requests queue.
        let trace: Vec<TraceRequest> = (0..6)
            .map(|i| TraceRequest::new(0, query(64, 0.0), i as u64 * 10))
            .collect();
        let server = ServerSim::new(
            PipelineModel::new(A3Config::paper_base()),
            BatchPolicy::per_request(),
        );
        let mut cache = MemoryCache::new(2);
        let (report, outcomes) =
            server.replay_detailed(&QuantizedBackend::paper(), &mut cache, &memories, &trace);
        let first = outcomes.first().unwrap();
        let last = outcomes.last().unwrap();
        assert!(
            last.latency_cycles() > first.latency_cycles(),
            "later requests must absorb queueing delay"
        );
        assert!(report.avg_latency_cycles > first.latency_cycles() as f64);
    }

    #[test]
    fn warm_cache_replay_pays_zero_preprocessing() {
        let memories = vec![memory(0.0, 64, 64)];
        let trace: Vec<TraceRequest> = (0..4)
            .map(|i| TraceRequest::new(0, query(64, 0.0), i as u64))
            .collect();
        let server = sim(BatchPolicy::new(4, 50).unwrap());
        let backend = ApproximateBackend::conservative();
        let mut cache = MemoryCache::new(2);
        let cold = server.replay(&backend, &mut cache, &memories, &trace);
        assert!(cold.preprocessing_cycles > 0);
        assert_eq!(cold.cache_misses, 1);
        let warm = server.replay(&backend, &mut cache, &memories, &trace);
        assert_eq!(warm.preprocessing_cycles, 0);
        assert_eq!(warm.cache_hits, 1);
        assert!(warm.end_to_end_cycles() <= cold.end_to_end_cycles());
    }

    #[test]
    fn empty_trace_yields_zero_report() {
        let server = sim(BatchPolicy::default());
        let mut cache = MemoryCache::new(2);
        let (report, outcomes) =
            server.replay_detailed(&ExactBackend, &mut cache, &[memory(0.0, 8, 64)], &[]);
        assert_eq!(report.queries, 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.total_cycles, 0);
        assert!(outcomes.is_empty());
    }

    #[test]
    fn poisson_arrivals_are_deterministic_and_monotonic() {
        let a = poisson_arrival_cycles(7, 32, 100.0);
        let b = poisson_arrival_cycles(7, 32, 100.0);
        assert_eq!(a, b, "same seed, same trace");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let c = poisson_arrival_cycles(8, 32, 100.0);
        assert_ne!(a, c, "different seeds diverge");
        let mean = *a.last().unwrap() as f64 / 32.0;
        assert!(mean > 20.0 && mean < 500.0, "mean interval {mean}");
    }

    #[test]
    fn single_default_tenant_replay_matches_legacy_replay() {
        let memories = vec![memory(0.0, 64, 64), memory(1.0, 48, 64)];
        let trace: Vec<TraceRequest> = (0..10)
            .map(|i| TraceRequest::new(i % 2, query(64, 0.01 * i as f32), (i as u64) * 40))
            .collect();
        let server = sim(BatchPolicy::new(4, 200).unwrap());
        let backend = ApproximateBackend::conservative();
        let mut cache = MemoryCache::new(4);
        let (legacy, legacy_outcomes) =
            server.replay_detailed(&backend, &mut cache, &memories, &trace);
        let mut cache = MemoryCache::new(4);
        let (multi, tenants, outcomes) = server.replay_multi_tenant(
            &backend,
            &mut cache,
            &memories,
            &[0, 0],
            &[TenantConfig::default()],
            &trace,
        );
        assert_eq!(legacy, multi, "one unlimited tenant must change nothing");
        let unwrapped: Vec<RequestOutcome> = outcomes.into_iter().map(|o| o.unwrap()).collect();
        assert_eq!(legacy_outcomes, unwrapped);
        assert_eq!(tenants.len(), 1);
        assert_eq!(tenants[0].offered, 10);
        assert_eq!(tenants[0].admitted, 10);
        assert_eq!(tenants[0].throttled, 0);
        assert_eq!(tenants[0].completed, 10);
        assert!(tenants[0].avg_latency_cycles > 0.0);
    }

    #[test]
    fn rate_limited_tenants_drop_over_rate_arrivals() {
        let memories = vec![memory(0.0, 64, 64)];
        // 12 arrivals in quick succession against a 1-per-1000-cycles, burst-2
        // bucket: only the burst plus refills get in.
        let trace: Vec<TraceRequest> = (0..12)
            .map(|i| TraceRequest::new(0, query(64, 0.0), (i as u64) * 10))
            .collect();
        let server = sim(BatchPolicy::per_request());
        let mut cache = MemoryCache::new(2);
        let spec = TenantConfig::default().with_rate_limit(RateLimit::new(1, 1_000, 2).unwrap());
        let (report, tenants, outcomes) = server.replay_multi_tenant(
            &ApproximateBackend::conservative(),
            &mut cache,
            &memories,
            &[0],
            &[spec],
            &trace,
        );
        assert_eq!(tenants[0].offered, 12);
        assert_eq!(
            tenants[0].admitted, 2,
            "burst of 2, no refill inside 110 cycles"
        );
        assert_eq!(tenants[0].throttled, 10);
        assert_eq!(report.queries, 2);
        assert_eq!(outcomes.iter().filter(|o| o.is_none()).count(), 10);
        assert!(outcomes[0].is_some() && outcomes[1].is_some());
    }

    #[test]
    fn high_priority_tenants_keep_latency_under_background_flood() {
        let memories = vec![memory(0.0, 96, 64), memory(1.0, 96, 64)];
        // Session 0: background flood, session 1: sparse high-priority traffic,
        // both saturating one unit.
        let mut trace = Vec::new();
        for i in 0..40u64 {
            trace.push(TraceRequest::new(0, query(64, 0.0), i * 5));
        }
        for i in 0..8u64 {
            trace.push(TraceRequest::new(1, query(64, 0.1), i * 25));
        }
        let server = sim(BatchPolicy::per_request());
        let specs = [
            TenantConfig::new(Priority::Background),
            TenantConfig::new(Priority::High),
        ];
        let mut cache = MemoryCache::new(4);
        let (_, tenants, _) = server.replay_multi_tenant(
            &ApproximateBackend::conservative(),
            &mut cache,
            &memories,
            &[0, 1],
            &specs,
            &trace,
        );
        assert!(
            tenants[1].p99_latency_cycles < tenants[0].p99_latency_cycles,
            "high-priority p99 ({}) must beat background p99 ({})",
            tenants[1].p99_latency_cycles,
            tenants[0].p99_latency_cycles
        );
        assert_eq!(tenants[1].completed, 8);
    }

    #[test]
    #[should_panic(expected = "references tenant")]
    fn out_of_range_tenant_panics() {
        let server = sim(BatchPolicy::default());
        let mut cache = MemoryCache::new(2);
        let trace = vec![TraceRequest::new(0, query(64, 0.0), 0)];
        server.replay_multi_tenant(
            &ExactBackend,
            &mut cache,
            &[memory(0.0, 8, 64)],
            &[3],
            &[TenantConfig::default()],
            &trace,
        );
    }

    #[test]
    #[should_panic(expected = "references session")]
    fn out_of_range_session_panics() {
        let server = sim(BatchPolicy::default());
        let mut cache = MemoryCache::new(2);
        let trace = vec![TraceRequest::new(3, query(64, 0.0), 0)];
        server.replay(&ExactBackend, &mut cache, &[memory(0.0, 8, 64)], &trace);
    }
}
