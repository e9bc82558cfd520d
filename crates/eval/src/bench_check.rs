//! Deterministic perf smoke and baseline comparison — the `bench-regression` CI gate.
//!
//! Four PRs of perf-sensitive code (serving layer, cache, scheduler, sharding, SIMD
//! backend) mean CI must catch throughput regressions, not just compile errors. This
//! module measures a small, quick, deterministic set of metrics and compares them
//! against baselines committed in `BENCH_BASELINE.tsv`:
//!
//! * **`cycles/...`** — accelerator cycle counts from the cycle-level simulator.
//!   Fully deterministic: any drift means the performance *model* changed, so these
//!   double as behavioural regression tests for the simulator. Cycle metrics are
//!   **datapath-invariant**: the simulator never models host SIMD, so the scalar
//!   and vectorised software datapaths of one backend cost identical simulated
//!   cycles and share a single row (asserted in [`measure`]) — wall-clock SIMD
//!   wins are what the `ratio/*` metrics capture.
//! * **`wall_ns/...`** — median wall-clock time of the software serving hot paths.
//!   Reported for visibility but **not gated**: raw nanoseconds do not transfer
//!   between machines.
//! * **`ratio/...`** — machine-transferable wall-clock *ratios* between components
//!   measured in the same run (SIMD vs scalar exact, approximate vs exact,
//!   warm-cache vs cold-cache). These are gated with [`RATIO_HEADROOM`] extra
//!   slack: a ratio drifting up by more than that means one side of the
//!   comparison regressed relative to the other, on whatever host CI runs on.
//!
//! A gated metric whose value exceeds its baseline by more than the tolerance
//! (default 15%, [`DEFAULT_TOLERANCE_PCT`]) fails the check; the report is a sorted
//! delta table (worst first) rendered as a Markdown table so CI can drop it into the
//! job summary. `scripts/bench_check.sh` runs the gate; `scripts/bench_update.sh`
//! regenerates the baselines after an *intentional* performance change.
//!
//! The baseline file is a flat table, one tab-separated row per metric, written
//! by [`render_baseline`] and read by [`parse_baseline`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use a3_core::attention::AttentionResult;
use a3_core::backend::{
    memory_fingerprint, ApproximateBackend, ComputeBackend, ExactBackend, MemoryCache,
    PreparedMemory, QuantizedBackend, SimdBackend, SimdLevel,
};
use a3_core::serve::{AttentionServer, BatchPolicy, MemoryConfig, Request};
use a3_core::Matrix;
use a3_sim::{A3Config, MultiUnit, PipelineModel};

use crate::experiments::{batch_queries, memory};

/// Gated metrics may exceed their baseline by this much (percent) before the check
/// fails.
pub const DEFAULT_TOLERANCE_PCT: f64 = 15.0;

/// Extra headroom multiplier applied to `ratio/*` metrics: interleaving cancels
/// machine-wide noise but not *microarchitecture* — a branchy candidate-selection
/// loop and an FMA-dense kernel scale differently between, say, the Intel dev box
/// that committed the baseline and an AMD CI runner. Real regressions these ratios
/// exist to catch (losing vectorisation, a cache that stops hitting) move them by
/// 2x or more, so the wider gate keeps its teeth while not blocking PRs on
/// cross-host IPC differences. Cycle metrics are deterministic and get no headroom.
pub const RATIO_HEADROOM: f64 = 2.0;

/// Baseline file schema version (bumped when the metric set changes shape).
pub const SCHEMA_VERSION: u64 = 1;

/// The paper-size memory the smoke measures: BERT/SQuAD rows x embedding dim.
const N: usize = 320;
const D: usize = 64;
/// Queries per measured batch.
const BATCH: usize = 32;

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Unit of one measured metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricUnit {
    /// Deterministic simulator cycles.
    Cycles,
    /// Median wall-clock nanoseconds (machine-specific, informational).
    Nanos,
    /// Dimensionless wall-clock ratio between two components of the same run.
    Ratio,
}

impl MetricUnit {
    /// The label stored in the baseline file.
    pub fn label(self) -> &'static str {
        match self {
            MetricUnit::Cycles => "cycles",
            MetricUnit::Nanos => "ns",
            MetricUnit::Ratio => "ratio",
        }
    }

    /// Parses a baseline-file label.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "cycles" => Some(MetricUnit::Cycles),
            "ns" => Some(MetricUnit::Nanos),
            "ratio" => Some(MetricUnit::Ratio),
            _ => None,
        }
    }
}

/// One measured (or baselined) metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable identifier, e.g. `ratio/simd_vs_exact_batch`.
    pub name: String,
    /// The metric's unit.
    pub unit: MetricUnit,
    /// Measured value.
    pub value: f64,
    /// Whether the regression gate applies to this metric.
    pub gated: bool,
}

impl Metric {
    fn new(name: &str, unit: MetricUnit, value: f64, gated: bool) -> Self {
        Self {
            name: name.to_owned(),
            unit,
            value,
            gated,
        }
    }
}

/// Measurement effort: `Full` for the CI gate and committed baselines, `Quick` for
/// unit tests (shorter samples, identical metric set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// CI-grade sample lengths.
    Full,
    /// Short sample lengths for tests.
    Quick,
}

impl Effort {
    fn min_sample(self) -> Duration {
        match self {
            Effort::Full => Duration::from_millis(20),
            Effort::Quick => Duration::from_millis(1),
        }
    }

    fn samples(self) -> usize {
        match self {
            Effort::Full => 7,
            Effort::Quick => 3,
        }
    }
}

/// Doubles the iteration count until one timed sample of `op` is long enough to
/// trust; doubles as the warm-up pass.
fn calibrate<F: FnMut()>(effort: Effort, op: &mut F) -> u32 {
    let mut iters: u32 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        if start.elapsed() >= effort.min_sample() || iters >= 1 << 22 {
            return iters;
        }
        iters = iters.saturating_mul(2);
    }
}

/// One timed sample: nanoseconds per iteration over `iters` iterations.
fn sample_ns<F: FnMut()>(iters: u32, op: &mut F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall-clock time of `op`, in nanoseconds: calibrated iteration count, then
/// the median of several samples (robust against scheduler noise).
fn median_ns<F: FnMut()>(effort: Effort, mut op: F) -> f64 {
    let iters = calibrate(effort, &mut op);
    median(
        (0..effort.samples())
            .map(|_| sample_ns(iters, &mut op))
            .collect(),
    )
}

/// Median of **interleaved** ratio samples `time(a) / time(b)`: each sample times
/// both sides back to back, so machine-wide slowdowns (CPU frequency, a noisy
/// co-tenant) hit numerator and denominator together and divide out — this is what
/// makes the `ratio/*` metrics transfer across runs and machines.
fn median_interleaved_ratio<A: FnMut(), B: FnMut()>(effort: Effort, mut a: A, mut b: B) -> f64 {
    let ia = calibrate(effort, &mut a);
    let ib = calibrate(effort, &mut b);
    median(
        (0..effort.samples())
            .map(|_| sample_ns(ia, &mut a) / sample_ns(ib, &mut b))
            .collect(),
    )
}

/// Rows appended per pool entry in the incremental-append measurement.
const APPEND_BURST: usize = 8;

/// Measures the incremental-append hot path: `(ns per appended row,
/// ratio of incremental maintenance to the rebuild-per-token full prepare)`.
///
/// Each sample pre-clones a pool of prepared memories (the clone stands in for
/// the server's uniquely-owned `Arc` and stays outside the timed region), times
/// [`APPEND_BURST`] in-place single-row appends per pool entry, then times the
/// same number of full prepares of the grown memory back to back — interleaved
/// like [`median_interleaved_ratio`], so the ratio transfers across machines.
fn measure_incremental_append(
    effort: Effort,
    approx: &ApproximateBackend,
    base: &PreparedMemory,
) -> (f64, f64) {
    let pool_size = match effort {
        Effort::Full => 48,
        Effort::Quick => 4,
    };
    let (burst_keys, _) = memory(N + APPEND_BURST, D, 17);
    let extra_rows: Vec<(Matrix, Matrix)> = (N..N + APPEND_BURST)
        .map(|r| {
            let row = Matrix::from_rows(vec![burst_keys.row(r).to_vec()]).expect("one row");
            (row.clone(), row)
        })
        .collect();
    let grown = Matrix::from_rows(
        (0..N + APPEND_BURST)
            .map(|r| burst_keys.row(r).to_vec())
            .collect(),
    )
    .expect("non-empty memory");

    let mut per_row_ns = Vec::new();
    let mut ratios = Vec::new();
    for _ in 0..effort.samples() {
        let mut pool: Vec<_> = (0..pool_size).map(|_| base.clone()).collect();
        let start = Instant::now();
        for m in &mut pool {
            for (extra_keys, extra_values) in &extra_rows {
                approx
                    .append_rows(m, extra_keys, extra_values)
                    .expect("valid shapes");
            }
        }
        let append_ns = start.elapsed().as_secs_f64() * 1e9 / (pool_size * APPEND_BURST) as f64;
        std::hint::black_box(&pool);

        let start = Instant::now();
        for _ in 0..pool_size {
            std::hint::black_box(
                approx
                    .prepare(std::hint::black_box(&grown), std::hint::black_box(&grown))
                    .expect("valid shapes"),
            );
        }
        let prepare_ns = start.elapsed().as_secs_f64() * 1e9 / pool_size as f64;

        per_row_ns.push(append_ns);
        ratios.push(append_ns / prepare_ns);
    }
    (median(per_row_ns), median(ratios))
}

/// Sessions of the serving backlog round, the requests queued on each, and
/// each session's memory rows: `babi_small`'s 64 whole sessions and full
/// batches of 16, over memories of 4 rows, so that the serving layer's share
/// of a round is large enough to measure.
const BACKLOG_SESSIONS: usize = 64;
const BACKLOG_BATCH: usize = 16;
const BACKLOG_ROWS: usize = 4;

/// Measures a serving backlog round, the loop of `babi_small`'s throughput
/// phase: one full batch of [`BACKLOG_BATCH`] requests submitted to each of
/// [`BACKLOG_SESSIONS`] whole `SimdBackend` sessions ([`BACKLOG_ROWS`] x
/// `D`), one poll serving all of them, and the responses dropped. Returns
/// `(ns per round, median overhead)`, where the overhead is the server's
/// round over the same batches run straight through
/// [`ComputeBackend::attend_batch_prepared`] with every result held until the
/// round ends, minus 1: the serving layer's own cost as a share of the
/// backend's. The requests are built before each sample is timed, as
/// perfbench builds its rounds, and both sides alternate within each sample,
/// like [`median_interleaved_ratio`].
///
/// The overhead, not the ratio, is gated: on a 2-vCPU AVX2 host it reads
/// about 0.25 with every request-path saving and about 0.65 without them,
/// while the whole ratio moves by less than `ratio/*`'s 30% headroom.
fn measure_serve_backlog(effort: Effort) -> (f64, f64) {
    let rounds = match effort {
        Effort::Full => 32,
        Effort::Quick => 2,
    };
    let backend = SimdBackend::new();
    let mut server = AttentionServer::builder(Box::new(backend))
        .batch_policy(BatchPolicy::new(BACKLOG_BATCH, 200).expect("non-zero batch"))
        .build();
    let memories: Vec<(Matrix, Matrix)> = (0..BACKLOG_SESSIONS)
        .map(|s| memory(BACKLOG_ROWS, D, 100 + s as u64))
        .collect();
    let sessions: Vec<_> = memories
        .iter()
        .map(|(keys, values)| {
            server
                .register(MemoryConfig::new(keys, values))
                .expect("valid memory")
        })
        .collect();
    let prepared: Vec<PreparedMemory> = memories
        .iter()
        .map(|(keys, values)| backend.prepare(keys, values).expect("valid memory"))
        .collect();
    let queries = batch_queries(BACKLOG_BATCH, D);
    let rows: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
    let round_requests = || -> Vec<Request> {
        sessions
            .iter()
            .flat_map(|&session| {
                queries
                    .iter()
                    .map(move |q| Request::new(session, q.clone(), 0))
            })
            .collect()
    };
    let mut round_ns = Vec::new();
    let mut overheads = Vec::new();
    // Sample 0 warms the queues, the server's buffers and the caches.
    for sample in 0..=effort.samples() {
        let requests: Vec<Vec<Request>> = (0..rounds).map(|_| round_requests()).collect();
        let start = Instant::now();
        for round in requests {
            for request in round {
                server.submit(request).expect("valid request");
            }
            std::hint::black_box(server.poll(0).expect("valid batches"));
        }
        let serve_ns = start.elapsed().as_secs_f64() * 1e9 / rounds as f64;
        let start = Instant::now();
        for _ in 0..rounds {
            let held: Vec<Vec<AttentionResult>> = prepared
                .iter()
                .map(|memory| {
                    backend
                        .attend_batch_prepared(memory, std::hint::black_box(&rows))
                        .expect("valid shapes")
                })
                .collect();
            std::hint::black_box(held);
        }
        let direct_ns = start.elapsed().as_secs_f64() * 1e9 / rounds as f64;
        if sample > 0 {
            round_ns.push(serve_ns);
            overheads.push(serve_ns / direct_ns - 1.0);
        }
    }
    (median(round_ns), median(overheads))
}

/// Runs the deterministic perf smoke and returns every metric, `cycles/*` first.
pub fn measure(effort: Effort) -> Vec<Metric> {
    let (keys, values) = memory(N, D, 17);
    let queries = batch_queries(BATCH, D);
    let rows: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
    let mut metrics = Vec::new();

    // -- Simulator cycle counts: deterministic, gated at the same tolerance. -----
    //
    // Every `cycles/*` metric is **datapath-invariant**: the simulator models the
    // accelerator's cycle behaviour, never the host's SIMD level, so the scalar
    // and vectorised software datapaths of the same backend cost identical
    // simulated cycles. The table therefore carries one cycles row per backend
    // (the old `cycles/quantized_simd_batch_320x64` duplicate, always equal to
    // `cycles/quantized_batch_320x64`, implied the SIMD kernels saved zero
    // cycles); the invariant itself is asserted below, and the vectorised
    // kernels' real win shows up in the `ratio/*` wall-clock metrics.
    let cycle_lineup: [(&str, Box<dyn ComputeBackend>, A3Config); 4] = [
        (
            "cycles/exact_batch_320x64",
            Box::new(ExactBackend),
            A3Config::paper_base(),
        ),
        (
            "cycles/quantized_batch_320x64",
            Box::new(QuantizedBackend::paper_scalar()),
            A3Config::paper_base(),
        ),
        (
            "cycles/approx_conservative_batch_320x64",
            Box::new(ApproximateBackend::conservative()),
            A3Config::paper_conservative(),
        ),
        (
            "cycles/approx_aggressive_batch_320x64",
            Box::new(ApproximateBackend::aggressive()),
            A3Config::paper_aggressive(),
        ),
    ];
    for (name, backend, config) in &cycle_lineup {
        let model = PipelineModel::new(*config);
        let mut cache = MemoryCache::new(1);
        let report = model.run_batch_with(backend.as_ref(), &mut cache, &keys, &values, &queries);
        metrics.push(Metric::new(
            name,
            MetricUnit::Cycles,
            report.end_to_end_cycles() as f64,
            true,
        ));
    }
    {
        // The datapath-invariance assertion behind the collapsed metric: the
        // vectorised quantized datapath must cost exactly the simulated cycles
        // of the scalar one measured above.
        let model = PipelineModel::new(A3Config::paper_base());
        let mut cache = MemoryCache::new(1);
        let simd_report = model.run_batch_with(
            &QuantizedBackend::paper(),
            &mut cache,
            &keys,
            &values,
            &queries,
        );
        let scalar_cycles = metrics
            .iter()
            .find(|m| m.name == "cycles/quantized_batch_320x64")
            .map(|m| m.value)
            .expect("measured just above");
        assert_eq!(
            simd_report.end_to_end_cycles() as f64,
            scalar_cycles,
            "simulated cycles must be datapath-invariant"
        );
    }
    {
        // Streaming decode: 16 appended tokens on a warm 304-row memory, one
        // query per token. Deterministic, so gated; pins the incremental-prepare
        // cycle accounting (initial full prepare + per-token incremental work).
        let model = PipelineModel::new(A3Config::paper_base());
        let mut cache = MemoryCache::new(2);
        let base = N - 16;
        let slice = |m: &Matrix, lo: usize, hi: usize| {
            Matrix::from_rows((lo..hi).map(|r| m.row(r).to_vec()).collect())
                .expect("non-empty slice")
        };
        let report = model.run_streaming_decode(
            &mut cache,
            &slice(&keys, 0, base),
            &slice(&values, 0, base),
            &slice(&keys, base, N),
            &slice(&values, base, N),
            &batch_queries(16, D),
        );
        assert!(
            report.incremental_prepare_cycles > 0,
            "the decode loop must charge incremental-prepare cycles"
        );
        metrics.push(Metric::new(
            "cycles/streaming_decode_16_tokens_320x64",
            MetricUnit::Cycles,
            report.end_to_end_cycles() as f64,
            true,
        ));
    }
    {
        // Sharded execution: per-shard drains plus the cross-shard merge stage.
        let group = MultiUnit::new(4, A3Config::paper_base());
        let mut cache = MemoryCache::new(8);
        let sharded = group.run_sharded_batch(&ExactBackend, &mut cache, &keys, &values, &queries);
        metrics.push(Metric::new(
            "cycles/sharded_4x_exact_batch_320x64",
            MetricUnit::Cycles,
            sharded.report.total_cycles as f64,
            true,
        ));
    }

    // -- Wall-clock medians of the software hot paths (informational). ----------
    //
    // The five warm-batch datapaths, each prepared once; `batch(label)` times one
    // 32-query batch against the resident memory, and every wall-clock row and
    // batch-against-batch ratio below reads its closures from this table.
    let approx = ApproximateBackend::conservative();
    let datapaths: [(&str, &dyn ComputeBackend); 5] = [
        ("exact", &ExactBackend),
        ("simd", &SimdBackend::new()),
        ("quantized_simd", &QuantizedBackend::paper()),
        ("quantized", &QuantizedBackend::paper_scalar()),
        ("approx_warm", &approx),
    ];
    let prepared: Vec<PreparedMemory> = datapaths
        .iter()
        .map(|(_, backend)| backend.prepare(&keys, &values).expect("valid shapes"))
        .collect();
    let slot = |label: &str| {
        datapaths
            .iter()
            .position(|&(l, _)| l == label)
            .expect("a datapath of the table")
    };
    let rows = &rows;
    let batch = |label: &str| {
        let (backend, memory) = (datapaths[slot(label)].1, &prepared[slot(label)]);
        move || {
            std::hint::black_box(
                backend
                    .attend_batch_prepared(memory, std::hint::black_box(rows))
                    .expect("valid shapes"),
            );
        }
    };
    for (label, _) in &datapaths {
        metrics.push(Metric::new(
            &format!("wall_ns/{label}_batch_320x64"),
            MetricUnit::Nanos,
            median_ns(effort, batch(label)),
            false,
        ));
    }
    let approx_memory = &prepared[slot("approx_warm")];

    let prepare_ns = median_ns(effort, || {
        std::hint::black_box(
            approx
                .prepare(std::hint::black_box(&keys), std::hint::black_box(&values))
                .expect("valid shapes"),
        );
    });
    metrics.push(Metric::new(
        "wall_ns/approx_prepare_320x64",
        MetricUnit::Nanos,
        prepare_ns,
        false,
    ));

    // The cache identity every registration computes: one content hash per
    // row, finished with its position, over the resident 320x64 memory.
    metrics.push(Metric::new(
        "wall_ns/fingerprint_320x64",
        MetricUnit::Nanos,
        median_ns(effort, || {
            std::hint::black_box(memory_fingerprint(
                std::hint::black_box(&keys),
                std::hint::black_box(&values),
            ));
        }),
        false,
    ));

    // Incremental append: single streamed rows into the prepared 320x64 memory
    // through the in-place [`ComputeBackend::append_rows`] path the serving
    // layer runs (the pre-cloned pool keeps the clone out of the timed region,
    // like the server's uniquely-owned `Arc`), against the rebuild-per-token
    // full re-prepare it replaces. Both timings interleave inside each sample,
    // so machine-wide noise divides out of the ratio.
    let (append_ns, append_ratio) = measure_incremental_append(effort, &approx, approx_memory);
    metrics.push(Metric::new(
        "wall_ns/incremental_append_320x64",
        MetricUnit::Nanos,
        append_ns,
        false,
    ));

    // The serving layer's own cost: a backlog round through the server,
    // against the same batches through the backend alone.
    let (backlog_ns, backlog_overhead) = measure_serve_backlog(effort);
    metrics.push(Metric::new(
        "wall_ns/serve_backlog_64x16",
        MetricUnit::Nanos,
        backlog_ns,
        false,
    ));

    // -- Machine-transferable ratios between components, interleaved (gated). ----
    metrics.push(Metric::new(
        "ratio/serve_overhead_backlog",
        MetricUnit::Ratio,
        backlog_overhead,
        true,
    ));
    if SimdBackend::new().level() == SimdLevel::Avx2 {
        // Skipped on scalar hosts: with both sides the same code the ratio is ~1
        // and would spuriously trip the gate against an AVX2 baseline.
        metrics.push(Metric::new(
            "ratio/simd_vs_exact_batch",
            MetricUnit::Ratio,
            median_interleaved_ratio(effort, batch("simd"), batch("exact")),
            true,
        ));
        // The integer-kernel win over the scalar quantized datapath; like the
        // simd ratio, meaningless on scalar hosts where dispatch makes both
        // sides the same code.
        metrics.push(Metric::new(
            "ratio/quantized_simd_vs_quantized_batch",
            MetricUnit::Ratio,
            median_interleaved_ratio(effort, batch("quantized_simd"), batch("quantized")),
            true,
        ));
    }
    metrics.push(Metric::new(
        "ratio/approx_warm_vs_exact_batch",
        MetricUnit::Ratio,
        median_interleaved_ratio(effort, batch("approx_warm"), batch("exact")),
        true,
    ));
    metrics.push(Metric::new(
        "ratio/incremental_append_vs_full_prepare",
        MetricUnit::Ratio,
        append_ratio,
        true,
    ));
    metrics.push(Metric::new(
        "ratio/warm_vs_cold_approx_batch",
        MetricUnit::Ratio,
        median_interleaved_ratio(
            effort,
            // Warm: the prepared memory is resident, only per-query work runs.
            batch("approx_warm"),
            || {
                // Cold: every batch re-runs the per-column key sort first.
                let memory = approx
                    .prepare(std::hint::black_box(&keys), std::hint::black_box(&values))
                    .expect("valid shapes");
                std::hint::black_box(
                    approx
                        .attend_batch_prepared(&memory, std::hint::black_box(rows))
                        .expect("valid shapes"),
                );
            },
        ),
        true,
    ));

    // Multi-tenant QoS acceptance ratios. Pure simulator cycle counts — fully
    // deterministic and machine-independent, committed so the isolation and
    // cost-aware-admission wins cannot silently regress.
    metrics.push(Metric::new(
        "ratio/tenant_isolation_p99",
        MetricUnit::Ratio,
        crate::experiments::multi_tenant::isolation_p99_ratio(),
        true,
    ));
    metrics.push(Metric::new(
        "ratio/cost_aware_vs_lru_cycles",
        MetricUnit::Ratio,
        crate::experiments::multi_tenant::cost_aware_vs_lru_cycles_ratio(),
        true,
    ));

    metrics
}

/// The SIMD dispatch level of this host, recorded in the baseline file for
/// provenance (not compared).
pub fn host_simd_level() -> &'static str {
    SimdBackend::new().level().label()
}

// ---------------------------------------------------------------------------
// Baseline file
// ---------------------------------------------------------------------------

/// Renders metrics as the baseline file: a `schema` line and a
/// `host_simd_level` line, then one `name<TAB>unit<TAB>value<TAB>gated` row per
/// metric, sorted by name. Each value is written with `f64`'s `Display`, which
/// parses back to the same bits.
pub fn render_baseline(metrics: &[Metric]) -> String {
    let mut rows: Vec<&Metric> = metrics.iter().collect();
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    let level = host_simd_level();
    let mut out = format!("schema\t{SCHEMA_VERSION}\nhost_simd_level\t{level}\n");
    for m in rows {
        let (unit, value, gated) = (m.unit.label(), m.value, m.gated);
        let _ = writeln!(out, "{}\t{unit}\t{value}\t{gated}", m.name);
    }
    out
}

/// Parses a baseline file written by [`render_baseline`] back into metrics.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_baseline(text: &str) -> Result<Vec<Metric>, String> {
    let mut lines = text.lines();
    let schema = lines.next().unwrap_or_default();
    if schema != format!("schema\t{SCHEMA_VERSION}") {
        return Err(format!(
            "line 1: `{schema}` is not `schema\\t{SCHEMA_VERSION}`; \
             regenerate with scripts/bench_update.sh"
        ));
    }
    let level = lines.next().unwrap_or_default();
    if !level.starts_with("host_simd_level\t") {
        return Err(format!(
            "line 2: `{level}` is not `host_simd_level\\t<level>`"
        ));
    }
    (3..)
        .zip(lines)
        .map(|(number, line)| parse_row(line).map_err(|what| format!("line {number}: {what}")))
        .collect()
}

/// Parses one `name<TAB>unit<TAB>value<TAB>gated` row.
fn parse_row(line: &str) -> Result<Metric, String> {
    let fields: Vec<&str> = line.split('\t').collect();
    let [name, unit, value, gated] = fields[..] else {
        return Err(format!(
            "{} field(s) in `{line}`, expected name, unit, value and gated",
            fields.len()
        ));
    };
    Ok(Metric {
        name: name.to_owned(),
        unit: MetricUnit::from_label(unit)
            .ok_or_else(|| format!("`{name}` has an unknown unit `{unit}`"))?,
        value: value
            .parse()
            .map_err(|_| format!("`{name}` has a non-numeric value `{value}`"))?,
        gated: gated
            .parse()
            .map_err(|_| format!("`{name}` has gated `{gated}`, not `true` or `false`"))?,
    })
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Verdict of one metric's baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Gated metric above baseline by more than the tolerance: the gate fails.
    Regression,
    /// Gated metric below baseline by more than the tolerance (worth re-baselining).
    Improved,
    /// Within tolerance.
    Ok,
    /// Informational metric (never gated).
    Info,
    /// Present in this run but absent from the baseline (run bench_update.sh).
    New,
    /// Present in the baseline but not measurable on this host (e.g. the SIMD
    /// ratio on a host without AVX2).
    Skipped,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improved => "improved",
            Verdict::Ok => "ok",
            Verdict::Info => "info",
            Verdict::New => "new",
            Verdict::Skipped => "skipped",
        }
    }
}

/// One row of the comparison report.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// Unit shared by baseline and current.
    pub unit: MetricUnit,
    /// Baseline value, if the baseline has this metric.
    pub baseline: Option<f64>,
    /// Current value, if measurable on this host.
    pub current: Option<f64>,
    /// Relative change in percent (`(current - baseline) / baseline * 100`).
    pub delta_pct: Option<f64>,
    /// The verdict under the gate.
    pub verdict: Verdict,
}

/// Full comparison of one measurement run against the baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Tolerance in percent the gate applied.
    pub tolerance_pct: f64,
    /// Every metric row, sorted worst-delta first.
    pub deltas: Vec<Delta>,
}

impl Comparison {
    /// Number of gated regressions (the gate fails when nonzero).
    pub fn regressions(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regression)
            .count()
    }

    /// Renders the sorted delta table as Markdown (CI drops this into the job
    /// summary).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| metric | unit | baseline | current | delta | verdict |"
        );
        let _ = writeln!(out, "|---|---|---:|---:|---:|---|");
        for d in &self.deltas {
            let fmt = |v: Option<f64>| match v {
                Some(x) if x.fract() == 0.0 && x.abs() < 1e15 => format!("{}", x as i64),
                Some(x) => format!("{x:.4}"),
                None => "—".to_owned(),
            };
            let delta = match d.delta_pct {
                Some(p) => format!("{p:+.1}%"),
                None => "—".to_owned(),
            };
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} | {} | {} |",
                d.name,
                d.unit.label(),
                fmt(d.baseline),
                fmt(d.current),
                delta,
                d.verdict.label()
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} gated regression(s) at ±{:.0}% tolerance (±{:.0}% for `ratio/*`, \
             cross-host headroom).",
            self.regressions(),
            self.tolerance_pct,
            self.tolerance_pct * RATIO_HEADROOM
        );
        out
    }
}

/// Compares a measurement run against baselines: gated metrics whose value grew by
/// more than `tolerance_pct` are regressions; rows come back sorted worst first.
pub fn compare(baseline: &[Metric], current: &[Metric], tolerance_pct: f64) -> Comparison {
    let by_name: BTreeMap<&str, &Metric> = current.iter().map(|m| (m.name.as_str(), m)).collect();
    let baseline_names: BTreeMap<&str, &Metric> =
        baseline.iter().map(|m| (m.name.as_str(), m)).collect();

    let mut deltas = Vec::new();
    for base in baseline {
        match by_name.get(base.name.as_str()) {
            Some(cur) => {
                let delta_pct = if base.value.abs() > f64::EPSILON {
                    (cur.value - base.value) / base.value * 100.0
                } else {
                    0.0
                };
                let gated = base.gated && cur.gated;
                let tolerance = if cur.unit == MetricUnit::Ratio {
                    tolerance_pct * RATIO_HEADROOM
                } else {
                    tolerance_pct
                };
                let verdict = if !gated {
                    Verdict::Info
                } else if delta_pct > tolerance {
                    Verdict::Regression
                } else if delta_pct < -tolerance {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                deltas.push(Delta {
                    name: base.name.clone(),
                    unit: cur.unit,
                    baseline: Some(base.value),
                    current: Some(cur.value),
                    delta_pct: Some(delta_pct),
                    verdict,
                });
            }
            None => deltas.push(Delta {
                name: base.name.clone(),
                unit: base.unit,
                baseline: Some(base.value),
                current: None,
                delta_pct: None,
                verdict: Verdict::Skipped,
            }),
        }
    }
    for cur in current {
        if !baseline_names.contains_key(cur.name.as_str()) {
            deltas.push(Delta {
                name: cur.name.clone(),
                unit: cur.unit,
                baseline: None,
                current: Some(cur.value),
                delta_pct: None,
                verdict: Verdict::New,
            });
        }
    }
    // Worst delta first; rows without a delta (skipped/new) sink to the bottom.
    deltas.sort_by(|a, b| {
        b.delta_pct
            .unwrap_or(f64::NEG_INFINITY)
            .total_cmp(&a.delta_pct.unwrap_or(f64::NEG_INFINITY))
            .then_with(|| a.name.cmp(&b.name))
    });
    Comparison {
        tolerance_pct,
        deltas,
    }
}

/// Multiplies every wall-clock and ratio metric by `factor` — the self-test hook
/// that demonstrates the gate trips on an injected slowdown
/// (`a3_bench_check check --inject-slowdown 1.2`). Cycle metrics are left alone:
/// they are deterministic, so scaling them would only test the arithmetic twice.
pub fn inject_slowdown(metrics: &mut [Metric], factor: f64) {
    for metric in metrics {
        if matches!(metric.unit, MetricUnit::Nanos | MetricUnit::Ratio) {
            metric.value *= factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Vec<Metric> {
        vec![
            Metric::new("cycles/a", MetricUnit::Cycles, 1000.0, true),
            Metric::new("ratio/b", MetricUnit::Ratio, 0.5, true),
            Metric::new("wall_ns/c", MetricUnit::Nanos, 123456.789, false),
        ]
    }

    #[test]
    fn baseline_roundtrips_through_the_table() {
        let metrics = sample_metrics();
        let text = render_baseline(&metrics);
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed.len(), metrics.len());
        for metric in &metrics {
            let restored = parsed.iter().find(|m| m.name == metric.name).unwrap();
            assert_eq!(restored.unit, metric.unit);
            assert_eq!(restored.gated, metric.gated);
            assert_eq!(restored.value.to_bits(), metric.value.to_bits());
        }
        // Rendering is stable (rows sorted by name), so baseline diffs stay minimal.
        assert_eq!(text, render_baseline(&parsed));

        // Every malformed input is rejected with a message naming its line.
        let schema = format!("schema\t{SCHEMA_VERSION}\n");
        let head = format!("{schema}host_simd_level\tavx2\ncycles/a\tcycles\t1\ttrue\n");
        for (row, expected) in [
            ("x\tcycles\t1000", "3 field(s)"),
            ("x\tcycles\t1\ttrue\t1", "5 field(s)"),
            ("x\tms\t1\ttrue", "`x` has an unknown unit"),
            ("x\tcycles\tfast\ttrue", "`x` has a non-numeric value"),
            ("x\tcycles\t1\tyes", "`x` has gated `yes`"),
        ] {
            let error = parse_baseline(&format!("{head}{row}\n")).unwrap_err();
            assert!(error.starts_with(&format!("line 4: {expected}")), "{error}");
        }
        let unversioned = head.replacen(&schema, "", 1);
        let unsupported = head.replacen(&schema, "schema\t0\n", 1);
        let untagged = head.replacen("host_simd_level", "host", 1);
        for (bad, expected) in [
            (String::new(), "line 1"),
            (unversioned, "line 1"),
            (unsupported, "line 1"),
            (untagged, "line 2"),
        ] {
            let error = parse_baseline(&bad).unwrap_err();
            assert!(error.starts_with(expected), "{error}");
        }
    }

    #[test]
    fn gate_trips_on_regressions_above_tolerance_only() {
        let baseline = sample_metrics();
        let mut current = sample_metrics();
        // +10% on a gated cycles metric: within the 15% tolerance.
        current[0].value = 1100.0;
        let cmp = compare(&baseline, &current, DEFAULT_TOLERANCE_PCT);
        assert_eq!(cmp.regressions(), 0);
        // +20% on a gated cycles metric: regression.
        current[0].value = 1200.0;
        let cmp = compare(&baseline, &current, DEFAULT_TOLERANCE_PCT);
        assert_eq!(cmp.regressions(), 1);
        assert_eq!(cmp.deltas[0].name, "cycles/a", "worst delta sorts first");
        assert_eq!(cmp.deltas[0].verdict, Verdict::Regression);
        // Ratio metrics gate with RATIO_HEADROOM extra slack (cross-host IPC
        // differences): +20% passes, +40% regresses.
        current[0].value = 1000.0;
        current[1].value = 0.6;
        let cmp = compare(&baseline, &current, DEFAULT_TOLERANCE_PCT);
        assert_eq!(cmp.regressions(), 0);
        current[1].value = 0.7;
        let cmp = compare(&baseline, &current, DEFAULT_TOLERANCE_PCT);
        assert_eq!(cmp.regressions(), 1);
        // A huge change on an ungated metric never fails the gate.
        current[1].value = 0.5;
        current[2].value = 1e9;
        let cmp = compare(&baseline, &current, DEFAULT_TOLERANCE_PCT);
        assert_eq!(cmp.regressions(), 0);
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.name == "wall_ns/c" && d.verdict == Verdict::Info));
    }

    #[test]
    fn improvements_missing_and_new_metrics_are_reported_not_failed() {
        let baseline = sample_metrics();
        let mut current = sample_metrics();
        current[1].value = 0.2; // big improvement
        current.remove(0); // cycles/a not measurable "on this host"
        current.push(Metric::new("ratio/new", MetricUnit::Ratio, 1.0, true));
        let cmp = compare(&baseline, &current, DEFAULT_TOLERANCE_PCT);
        assert_eq!(cmp.regressions(), 0);
        let verdict_of = |name: &str| {
            cmp.deltas
                .iter()
                .find(|d| d.name == name)
                .map(|d| d.verdict)
        };
        assert_eq!(verdict_of("ratio/b"), Some(Verdict::Improved));
        assert_eq!(verdict_of("cycles/a"), Some(Verdict::Skipped));
        assert_eq!(verdict_of("ratio/new"), Some(Verdict::New));
        let markdown = cmp.render_markdown();
        assert!(markdown.contains("| metric |"));
        assert!(markdown.contains("0 gated regression(s)"));
    }

    #[test]
    fn inject_slowdown_scales_wall_and_ratio_metrics_only() {
        let mut metrics = sample_metrics();
        inject_slowdown(&mut metrics, 1.4);
        assert!((metrics[0].value - 1000.0).abs() < 1e-9, "cycles untouched");
        assert!((metrics[1].value - 0.7).abs() < 1e-9);
        assert!((metrics[2].value - 172839.5046).abs() < 1e-3);
        // An injected 40% slowdown must trip the gate against itself (ratio
        // metrics gate at tolerance x RATIO_HEADROOM = 30%).
        let baseline = sample_metrics();
        let cmp = compare(&baseline, &metrics, DEFAULT_TOLERANCE_PCT);
        assert!(cmp.regressions() >= 1);
    }

    #[test]
    fn quick_measurement_produces_the_full_metric_set_with_deterministic_cycles() {
        let first = measure(Effort::Quick);
        let names: Vec<&str> = first.iter().map(|m| m.name.as_str()).collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "metric names must be unique");
        assert!(names.iter().any(|n| n.starts_with("cycles/")));
        assert!(names.iter().any(|n| n.starts_with("wall_ns/")));
        assert!(names.iter().any(|n| n.starts_with("ratio/")));
        let second = measure(Effort::Quick);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.name, b.name);
            if a.unit == MetricUnit::Cycles {
                assert_eq!(a.value, b.value, "{} must be deterministic", a.name);
            }
        }
        // Against itself, a run has zero regressions by construction for the
        // deterministic metrics; wall/ratio metrics compare within the tolerance
        // only statistically, so gate just the cycles here.
        let cycles: Vec<Metric> = first
            .iter()
            .filter(|m| m.unit == MetricUnit::Cycles)
            .cloned()
            .collect();
        let cmp = compare(&cycles, &cycles, DEFAULT_TOLERANCE_PCT);
        assert_eq!(cmp.regressions(), 0);

        // The committed baseline has a row for every metric measured here, and
        // its simulated numbers (the cycles and the two ratios of simulated
        // cycles) are exactly this build's. A host without AVX2 measures a
        // subset of the rows (no SIMD-vs-scalar ratios).
        let committed =
            parse_baseline(include_str!("../../../BENCH_BASELINE.tsv")).expect("valid baseline");
        let exact = [
            "ratio/tenant_isolation_p99",
            "ratio/cost_aware_vs_lru_cycles",
        ];
        for m in &first {
            let row = committed.iter().find(|row| row.name == m.name);
            let row = row.unwrap_or_else(|| panic!("BENCH_BASELINE.tsv has no `{}`", m.name));
            assert_eq!((row.unit, row.gated), (m.unit, m.gated), "{}", m.name);
            if m.unit == MetricUnit::Cycles || exact.contains(&m.name.as_str()) {
                assert_eq!(row.value, m.value, "stale baseline row `{}`", m.name);
            }
        }
    }
}
