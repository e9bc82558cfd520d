//! Memory sharding: shard count × backend × memory size.
//!
//! One logical key/value memory is split row-wise across simulated A3 units
//! ([`ShardedMemory`]), every query runs on every shard in parallel, and the partial
//! results meet at an explicit cross-shard merge stage. This experiment sweeps the
//! shard count per backend and memory size and reports:
//!
//! * **accuracy** — the merged output against the unsharded backend (candidate-union
//!   effects for the approximate datapath, per-shard weight-quantization noise for
//!   the fixed-point one; the exact float merge differs only in reduction order);
//! * **cycles** — slowest-shard drain, merge-stage cycles and the end-to-end total
//!   against a single unit serving the whole memory;
//! * **break-even** — the smallest shard count that beats single-unit serving, and
//!   the best shard count in the sweep (after which merge overhead and the per-query
//!   `α` fill of ever-smaller shards eat the parallel win).

use a3_core::attention::AttentionResult;
use a3_core::backend::{
    ApproximateBackend, ComputeBackend, ExactBackend, MemoryCache, QuantizedBackend, ShardPlan,
    ShardedMemory, SimdBackend,
};
use a3_sim::{A3Config, MultiUnit};

use super::{batch_queries, memory};
use crate::report::{fmt_ratio, Table};
use crate::settings::EvalSettings;

/// Shard counts swept (1 = the unsharded single-unit baseline).
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Logical memory sizes swept (rows). 320 is the paper's maximum instance size — the
/// "large memory" case sharding exists for.
pub const MEMORY_SIZES: [usize; 2] = [96, 320];

const D: usize = 64;

/// The sharding line-up: display name, backend, and the per-unit configuration.
fn lineup() -> Vec<(&'static str, Box<dyn ComputeBackend>, A3Config)> {
    vec![
        (
            "Exact (float)",
            Box::new(ExactBackend),
            A3Config::paper_base(),
        ),
        (
            "SIMD exact (runtime dispatch)",
            Box::new(SimdBackend::new()),
            A3Config::paper_base(),
        ),
        (
            "Quantized (Q4.4 LUT)",
            Box::new(QuantizedBackend::paper()),
            A3Config::paper_base(),
        ),
        (
            "Approximate (conservative)",
            Box::new(ApproximateBackend::conservative()),
            A3Config::paper_conservative(),
        ),
    ]
}

fn max_abs_output_diff(a: &[AttentionResult], b: &[AttentionResult]) -> f32 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.output.iter().zip(&y.output).map(|(p, q)| (p - q).abs()))
        .fold(0.0, f32::max)
}

fn avg_rows_attended(results: &[AttentionResult]) -> f64 {
    results
        .iter()
        .map(|r| r.weights.iter().filter(|&&w| w > 0.0).count() as f64)
        .sum::<f64>()
        / results.len() as f64
}

/// Runs the sharding sweep: accuracy, cycles/merge overhead, and break-even tables.
pub fn sharding(settings: &EvalSettings) -> Vec<Table> {
    let query_count = (settings.cases_per_workload * 2).max(4);
    let qs = batch_queries(query_count, D);

    let mut accuracy = Table::new(
        "Sharding: cross-shard merge accuracy vs the unsharded backend",
        &[
            "Memory n",
            "Backend",
            "Shards",
            "Max |dout| vs unsharded",
            "Max |dout| vs exact",
            "Avg rows attended",
        ],
    );
    let mut cycles = Table::new(
        "Sharding: per-shard pipelines + cross-shard merge, cycles (warm cache)",
        &[
            "Memory n",
            "Backend",
            "Shards",
            "Slowest shard (cyc)",
            "Merge (cyc)",
            "Total (cyc)",
            "Speedup vs 1 shard",
            "Merge overhead",
        ],
    );
    let mut break_even = Table::new(
        "Sharding: break-even shard count (smallest K beating a single unit)",
        &[
            "Memory n",
            "Backend",
            "Break-even shards",
            "Best shards",
            "Best speedup",
        ],
    );

    for &n in &MEMORY_SIZES {
        let (keys, values) = memory(n, D, settings.seed);
        let exact_reference: Vec<AttentionResult> = qs
            .iter()
            .map(|q| {
                ExactBackend
                    .attend(&keys, &values, q)
                    .expect("valid shapes")
            })
            .collect();
        for (name, backend, config) in &lineup() {
            let unsharded: Vec<AttentionResult> = {
                let prepared = backend.prepare(&keys, &values).expect("valid shapes");
                qs.iter()
                    .map(|q| backend.attend_prepared(&prepared, q).expect("valid shapes"))
                    .collect()
            };
            let mut single_total: Option<u64> = None;
            let mut best: Option<(usize, f64)> = None;
            let mut break_even_shards: Option<usize> = None;
            for &k in &SHARD_COUNTS {
                // Functional path: sharded execution through the backend's merge.
                let sharded_memory = ShardedMemory::prepare(
                    backend.as_ref(),
                    ShardPlan::new(k).expect("k >= 1"),
                    &keys,
                    &values,
                )
                .expect("valid shapes");
                let sharded: Vec<AttentionResult> = qs
                    .iter()
                    .map(|q| {
                        backend
                            .attend_sharded(&sharded_memory, q)
                            .expect("valid shapes")
                    })
                    .collect();
                accuracy.push_row(vec![
                    format!("{n}"),
                    (*name).to_owned(),
                    format!("{k}"),
                    format!("{:.2e}", max_abs_output_diff(&sharded, &unsharded)),
                    format!("{:.2e}", max_abs_output_diff(&sharded, &exact_reference)),
                    format!("{:.1}", avg_rows_attended(&sharded)),
                ]);

                // Cycle path: warm per-shard cache, explicit merge stage.
                let group = MultiUnit::new(k, *config);
                let mut cache = MemoryCache::new(2 * k);
                group.run_sharded_batch(backend.as_ref(), &mut cache, &keys, &values, &qs);
                let warm =
                    group.run_sharded_batch(backend.as_ref(), &mut cache, &keys, &values, &qs);
                let total = warm.report.total_cycles;
                if k == 1 {
                    single_total = Some(total);
                }
                let single = single_total.expect("shard count 1 runs first");
                let speedup = single as f64 / total as f64;
                if k > 1 && total < single && break_even_shards.is_none() {
                    break_even_shards = Some(k);
                }
                if best.map_or(true, |(_, s)| speedup > s) {
                    best = Some((k, speedup));
                }
                cycles.push_row(vec![
                    format!("{n}"),
                    (*name).to_owned(),
                    format!("{k}"),
                    format!("{}", warm.slowest_shard_cycles),
                    format!("{}", warm.report.merge_cycles),
                    format!("{total}"),
                    fmt_ratio(speedup),
                    format!("{:.1}%", 100.0 * warm.merge_overhead()),
                ]);
            }
            let (best_k, best_speedup) = best.expect("sweep is non-empty");
            break_even.push_row(vec![
                format!("{n}"),
                (*name).to_owned(),
                break_even_shards.map_or_else(|| "none".to_owned(), |k| format!("{k}")),
                format!("{best_k}"),
                fmt_ratio(best_speedup),
            ]);
        }
    }

    vec![accuracy, cycles, break_even]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_tables_cover_every_combination() {
        let tables = sharding(&EvalSettings::fast());
        assert_eq!(tables.len(), 3);
        // 2 memory sizes x 4 backends x 4 shard counts.
        assert_eq!(tables[0].len(), 2 * 4 * 4);
        assert_eq!(tables[1].len(), 2 * 4 * 4);
        // 2 memory sizes x 4 backends.
        assert_eq!(tables[2].len(), 2 * 4);
    }

    #[test]
    fn sharded_execution_beats_single_unit_on_the_large_memory() {
        let tables = sharding(&EvalSettings::fast());
        let break_even = &tables[2];
        for row in 0..break_even.len() {
            if break_even.cell(row, 0) == Some("320") {
                let k = break_even.cell(row, 2).unwrap();
                assert_ne!(
                    k, "none",
                    "row {row}: a shard count must beat single-unit serving on n = 320"
                );
                let best: f64 = break_even
                    .cell(row, 4)
                    .unwrap()
                    .trim_end_matches('x')
                    .parse()
                    .unwrap();
                assert!(best > 1.0, "row {row}: best speedup {best}");
            }
        }
    }

    #[test]
    fn accuracy_matches_the_unsharded_backend() {
        let tables = sharding(&EvalSettings::fast());
        let accuracy = &tables[0];
        for row in 0..accuracy.len() {
            let backend = accuracy.cell(row, 1).unwrap();
            let diff: f64 = accuracy.cell(row, 3).unwrap().parse().unwrap();
            match backend {
                // Float merge: reduction-order noise only (lane-order noise too for
                // the SIMD datapath, same bound).
                "Exact (float)" | "SIMD exact (runtime dispatch)" => {
                    assert!(diff < 1e-5, "row {row}: exact diff {diff}");
                }
                // Fixed-point merge: per-shard weight-quantization noise.
                "Quantized (Q4.4 LUT)" => assert!(diff < 0.05, "row {row}: quantized diff {diff}"),
                // Candidate union: small selection differences are legitimate, but the
                // outputs must stay close on these skewed memories.
                _ => assert!(diff < 0.1, "row {row}: approximate diff {diff}"),
            }
        }
    }

    #[test]
    fn merge_overhead_grows_with_shard_count_but_stays_minor() {
        let tables = sharding(&EvalSettings::fast());
        let cycles = &tables[1];
        for row in 0..cycles.len() {
            let shards: usize = cycles.cell(row, 2).unwrap().parse().unwrap();
            let merge: u64 = cycles.cell(row, 4).unwrap().parse().unwrap();
            if shards == 1 {
                assert_eq!(merge, 0, "row {row}: one shard must not merge");
            } else {
                assert!(merge > 0, "row {row}: sharded runs must charge the merge");
            }
        }
    }
}
