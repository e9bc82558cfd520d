//! Per-layer metrics of a traced run: serving-layer times from the probe,
//! backend times from the `TracedBackend` spans, and stage times from replaying
//! sampled queries through the public stage functions on each session's
//! memory.

use std::time::Instant;

use a3_core::approx::{post_scoring_select, select_candidates, ApproxConfig, SortedKeyColumns};
use a3_core::backend::{merge_partial_softmax, ComputeBackend, ShardPlan, ShardedMemory};
use a3_core::serve::SessionMemory;
use a3_core::Matrix;
use a3_sim::{A3Config, PipelineModel};

use crate::probe::Probe;
use crate::run::{Metric, Run};
use crate::stats::{mean, median, percentile, ratio};
use crate::traced::Call;
use crate::workload::{Kind, DECODE_ROWS};

/// Shards used to replay the merge stage on memories served whole.
const REPLAY_SHARDS: usize = 4;
/// One-row appends replayed per memory on workloads that never append.
const REPLAY_APPENDS: usize = 4;

/// Stage timings gathered by [`replay`].
#[derive(Debug, Default)]
struct Stages {
    select_ns: Vec<f64>,
    post_score_ns: Vec<f64>,
    candidates: Vec<f64>,
    kept: Vec<f64>,
    merge_ns: Vec<f64>,
    append_ns: Vec<f64>,
    appends: u64,
    full_reprepares: u64,
    sim_cycles: Vec<f64>,
}

/// The whole logical memory of a session as (keys, values).
pub fn flatten(memory: &SessionMemory) -> (Matrix, Matrix) {
    match memory {
        SessionMemory::Whole(m) => (m.keys().clone(), m.values().clone()),
        SessionMemory::Sharded(s) => {
            let (mut keys, mut values) = (Vec::new(), Vec::new());
            for shard in s.shards() {
                keys.extend_from_slice(shard.memory().keys().as_slice());
                values.extend_from_slice(shard.memory().values().as_slice());
            }
            let to_matrix =
                |flat| Matrix::from_flat(flat, s.n(), s.d()).expect("shards tile the memory");
            (to_matrix(keys), to_matrix(values))
        }
    }
}

/// Replays every `(memory, queries)` group through the stage functions.
///
/// * Selection and post-scoring use the session's own sorted columns when the
///   backend is approximate, and a sorted copy (conservative `M` and `T`)
///   otherwise.
/// * The merge stage uses the session's shards when it is sharded, and a
///   `REPLAY_SHARDS`-way split of the memory otherwise.
/// * Appends are only replayed for workloads that never append while serving:
///   `REPLAY_APPENDS` one-row appends to a copy of each memory.
fn replay(
    kind: Kind,
    reference: &dyn ComputeBackend,
    groups: &[(SessionMemory, Vec<Vec<f32>>)],
) -> Stages {
    let config = ApproxConfig::conservative();
    let threshold = config.threshold().expect("conservative T is set");
    let sim = PipelineModel::new(A3Config {
        n_max: DECODE_ROWS,
        approx: if kind.is_approximate() {
            config
        } else {
            ApproxConfig::none()
        },
        ..A3Config::paper_base()
    });
    let mut stages = Stages::default();
    for (memory, queries) in groups {
        let (keys, values) = flatten(memory);
        let own_sorted = memory.whole().and_then(|m| m.sorted());
        let copy_sorted;
        let sorted = match own_sorted {
            Some(s) => s,
            None => {
                copy_sorted = SortedKeyColumns::preprocess(&keys);
                &copy_sorted
            }
        };
        let split;
        let sharded = match memory {
            SessionMemory::Sharded(s) => s.as_ref(),
            SessionMemory::Whole(_) => {
                let plan = ShardPlan::new(REPLAY_SHARDS).expect("non-zero shards");
                split = ShardedMemory::prepare(reference, plan, &keys, &values)
                    .expect("a served memory splits");
                &split
            }
        };
        let m = config
            .resolve_m(keys.rows())
            .expect("conservative M is set");
        for query in queries {
            let start = Instant::now();
            let selection = select_candidates(sorted, query, m);
            stages.select_ns.push(start.elapsed().as_nanos() as f64);
            let mut candidates = selection.candidates;
            if candidates.is_empty() {
                candidates.push(selection.best_row);
            }
            let scores: Vec<f32> = candidates.iter().map(|&r| keys.row_dot(r, query)).collect();
            let start = Instant::now();
            let kept = post_scoring_select(&candidates, &scores, threshold);
            stages.post_score_ns.push(start.elapsed().as_nanos() as f64);
            stages.candidates.push(candidates.len() as f64);
            stages.kept.push(kept.len() as f64);

            let partials: Vec<_> = sharded
                .shards()
                .iter()
                .map(|s| {
                    reference
                        .attend_prepared(s.memory(), query)
                        .expect("served query fits")
                })
                .collect();
            let start = Instant::now();
            std::hint::black_box(merge_partial_softmax(sharded, &partials));
            stages.merge_ns.push(start.elapsed().as_nanos() as f64);
        }
        let report = sim.run_batch_with(
            reference,
            &mut a3_core::backend::MemoryCache::new(0),
            &keys,
            &values,
            queries,
        );
        stages.sim_cycles.extend(std::iter::repeat_n(
            report.avg_throughput_cycles,
            queries.len(),
        ));
        if kind != Kind::DecodeStream {
            let mut copy = reference
                .prepare(&keys, &values)
                .expect("a served memory prepares");
            let last = keys.rows() - 1;
            let row = Matrix::from_flat(keys.row(last).to_vec(), 1, keys.dim()).expect("one row");
            for _ in 0..REPLAY_APPENDS {
                let start = Instant::now();
                let out = reference
                    .append_rows(&mut copy, &row, &row)
                    .expect("one-row append");
                stages.append_ns.push(start.elapsed().as_nanos() as f64);
                stages.appends += 1;
                stages.full_reprepares += u64::from(out.full_reprepare);
            }
        }
    }
    stages
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Every per-layer metric for a traced run. `untraced_qps` is the throughput
/// of the untraced run of the same workload and seed.
pub fn layer_metrics(run: &Run, probe: &Probe, untraced_qps: f64) -> Vec<Metric> {
    let kind = run.kind;
    let reference = kind.backend();
    let stages = replay(kind, reference.as_ref(), &run.replay);
    let spans = probe.log.spans();
    let durations = |call: Call| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.call == call)
            .map(|s| s.dur_ns as f64)
            .collect()
    };
    let batch_spans: Vec<_> = spans.iter().filter(|s| s.call.is_batch()).collect();
    let batch_queries: usize = batch_spans.iter().map(|s| s.queries).sum();
    let batch_ns: f64 = batch_spans.iter().map(|s| s.dur_ns as f64).sum();
    let batch_ns_per_query = ratio(batch_ns, batch_queries as f64);
    let kernel_ns_per_query = run.checks.kernel_ns_per_query();
    let prepare_ns = durations(Call::Prepare);

    let (append_ns, appends, full_reprepares, rebalances, cache_updates) = match &run.decode {
        Some(d) => (
            durations(Call::AppendRows),
            d.appends,
            d.full_reprepares,
            d.rebalances,
            d.cache_updates,
        ),
        None => (
            stages.append_ns.clone(),
            stages.appends,
            stages.full_reprepares,
            0,
            0,
        ),
    };
    let select_ns = median(&stages.select_ns);
    let cycles = mean(&stages.sim_cycles);
    let (sent, completed, failed) = run.totals();
    let replays = stages.select_ns.len();

    vec![
        metric(
            "loadgen.lag_p99_us",
            run.lag_us.p99(),
            "us",
            run.lag_us.samples,
        ),
        metric("loadgen.sent", sent as f64, "count", 1),
        metric("loadgen.completed", completed as f64, "count", 1),
        metric("loadgen.failed", failed as f64, "count", 1),
        metric(
            "serve.submit_ns_p50",
            median(&probe.submit_ns),
            "ns",
            probe.submit_ns.len(),
        ),
        metric(
            "serve.poll_self_ns_per_req",
            ratio(probe.poll_ns - probe.poll_backend_ns, probe.polled as f64),
            "ns",
            probe.polled as usize,
        ),
        metric(
            "serve.queue_wait_us_p50",
            median(&probe.queue_wait_us),
            "us",
            probe.queue_wait_us.len(),
        ),
        metric(
            "serve.batch_fill",
            ratio(probe.queue_wait_us.len() as f64, probe.batches as f64),
            "count",
            probe.batches as usize,
        ),
        metric(
            "serve.flush_full_frac",
            ratio(probe.full_batches as f64, probe.batches as f64),
            "frac",
            probe.batches as usize,
        ),
        metric(
            "backend.batch_ns_per_query",
            batch_ns_per_query,
            "ns",
            batch_queries,
        ),
        metric(
            "backend.kernel_ns_per_query",
            kernel_ns_per_query,
            "ns",
            run.checks.checked as usize,
        ),
        metric(
            "backend.fanout_ratio",
            ratio(batch_ns_per_query, kernel_ns_per_query),
            "ratio",
            batch_queries,
        ),
        metric(
            "backend.prepare_ns",
            median(&prepare_ns),
            "ns",
            prepare_ns.len(),
        ),
        metric(
            "backend.append_ns_p50",
            median(&append_ns),
            "ns",
            append_ns.len(),
        ),
        metric(
            "backend.append_ns_p99",
            percentile(&append_ns, 99.0),
            "ns",
            append_ns.len(),
        ),
        metric(
            "cache.hit_frac",
            ratio(
                run.setup_cache.0 as f64,
                (run.setup_cache.0 + run.setup_cache.1) as f64,
            ),
            "frac",
            (run.setup_cache.0 + run.setup_cache.1) as usize,
        ),
        metric("cache.updates", cache_updates as f64, "count", 1),
        metric(
            "shard.merge_ns",
            median(&stages.merge_ns),
            "ns",
            stages.merge_ns.len(),
        ),
        metric("shard.rebalances", rebalances as f64, "count", 1),
        metric(
            "incremental.full_reprepare_frac",
            ratio(full_reprepares as f64, appends as f64),
            "frac",
            appends as usize,
        ),
        metric("approx.select_ns", select_ns, "ns", replays),
        metric(
            "approx.post_score_ns",
            median(&stages.post_score_ns),
            "ns",
            replays,
        ),
        metric(
            "approx.select_share",
            ratio(select_ns, kernel_ns_per_query),
            "frac",
            replays,
        ),
        metric(
            "approx.candidates_per_query",
            mean(&stages.candidates),
            "count",
            replays,
        ),
        metric(
            "approx.kept_per_query",
            mean(&stages.kept),
            "count",
            replays,
        ),
        metric(
            "approx.keep_frac",
            ratio(stages.kept.iter().sum(), stages.candidates.iter().sum()),
            "frac",
            replays,
        ),
        metric(
            "sim.cycles_per_query",
            cycles,
            "cycles",
            stages.sim_cycles.len(),
        ),
        metric(
            "sim.host_ns_per_cycle",
            ratio(kernel_ns_per_query, cycles),
            "ns/cycle",
            stages.sim_cycles.len(),
        ),
        metric(
            "trace.overhead_frac",
            ratio(untraced_qps, run.throughput_qps) - 1.0,
            "frac",
            run.throughput_samples,
        ),
    ]
}
