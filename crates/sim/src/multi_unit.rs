//! Multi-unit scaling (paper Section III-C "Use of Multiple A3 Units" and the BERT
//! discussion in Section VI-C) — now two models:
//!
//! * **Sharded execution** ([`MultiUnit::run_sharded_batch`]): the logical key/value
//!   memory is split row-wise across the units ([`a3_core::backend::ShardedMemory`]),
//!   every query runs on **every** unit over its shard in parallel, and an explicit
//!   cross-shard merge unit combines the per-shard partial results — per-shard
//!   candidate-set union for the approximate datapath, log-sum-exp softmax merge for
//!   the dense ones. The merge stage has its own cycle cost
//!   ([`merge_query_cycles`]) and energy cost (the `merge_ops` activity counter feeds
//!   [`crate::energy::merge_unit`]). This models the case the paper does *not*
//!   scale: one memory too large (or too hot) for a single unit.
//! * **Analytic independent-operation scaling** ([`MultiUnit::aggregate_throughput`]):
//!   the paper's near-perfect (98%-per-unit) formula for *independent* attention
//!   operations, kept as a cross-check — it must agree with actually distributing
//!   independent queries across units ([`MultiUnit::independent_queries_drain`])
//!   within a few percent.

use a3_core::backend::{ComputeBackend, MemoryCache, ShardPlan, ShardedMemory};
use a3_core::Matrix;
use serde::{Deserialize, Serialize};

use crate::config::A3Config;
use crate::energy::{EnergyModel, TableI};
use crate::pipeline::{Drain, ModuleActivity, PipelineModel, QueryCost, SimReport};

/// Vector-lane width of the cross-shard merge unit: partial output elements
/// rescaled-and-accumulated per cycle (matches the 16-wide scan datapath of the
/// candidate-selection module).
pub const MERGE_LANES: u64 = 16;

/// Pipeline-fill constant of the merge stage (normalizer exchange + final divide).
pub const MERGE_ALPHA: u64 = 4;

/// Cycle cost of merging `shards` per-shard partial results for one query: one cycle
/// per shard to rescale its normalizer (exponent evaluation + multiply), the `d`-wide
/// partial outputs accumulated at [`MERGE_LANES`] lanes per cycle, plus the fill
/// constant. Zero when nothing needs merging (`shards <= 1`).
pub fn merge_query_cycles(shards: usize, d: usize) -> u64 {
    if shards <= 1 {
        return 0;
    }
    let k = shards as u64;
    k + (k * d as u64).div_ceil(MERGE_LANES) + MERGE_ALPHA
}

/// Element-level merge-unit operations for one query (energy accounting): one
/// normalizer rescale plus `d` output-lane accumulates per shard.
fn merge_query_ops(shards: usize, d: usize) -> u64 {
    if shards <= 1 {
        0
    } else {
        shards as u64 * (d as u64 + 1)
    }
}

/// Report of one sharded batch execution: `K` per-shard pipelines running in
/// parallel plus the serial cross-shard merge unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedSimReport {
    /// Pipeline drain cycles of each shard's unit, in shard (row) order.
    pub per_shard_cycles: Vec<u64>,
    /// The slowest shard's drain — the parallel stage's critical path.
    pub slowest_shard_cycles: u64,
    /// Aggregate view: [`SimReport::total_cycles`] is the completion of the last
    /// query's merge, [`SimReport::merge_cycles`]/[`SimReport::shards`] carry the
    /// merge stats, and the activity sums every shard's modules plus the merge unit.
    pub report: SimReport,
}

impl ShardedSimReport {
    /// Accelerator total plus host-side preprocessing charged to this batch.
    pub fn end_to_end_cycles(&self) -> u64 {
        self.report.end_to_end_cycles()
    }

    /// Fraction of the total spent in the cross-shard merge stage.
    pub fn merge_overhead(&self) -> f64 {
        self.report.merge_cycles as f64 / self.report.total_cycles.max(1) as f64
    }
}

/// A group of identical A3 units. Serves either independent attention operations
/// (analytic scaling, the paper's case) or one row-sharded memory (actual sharded
/// execution with a cross-shard merge).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiUnit {
    /// Number of units.
    pub units: usize,
    /// Per-unit configuration.
    pub config: A3Config,
    /// Scaling efficiency per additional unit for *independent* operations (1.0 =
    /// perfect; the paper describes the BERT case as "near-perfect" because every
    /// query is independent). Cross-checked against
    /// [`MultiUnit::independent_queries_drain`].
    pub scaling_efficiency: f64,
}

impl MultiUnit {
    /// Creates a group of `units` units with near-perfect (98%) scaling.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn new(units: usize, config: A3Config) -> Self {
        assert!(units >= 1, "at least one unit is required");
        Self {
            units,
            config,
            scaling_efficiency: 0.98,
        }
    }

    /// Aggregate throughput in attention operations per second given one unit's
    /// simulated report — the paper's analytic formula for independent operations.
    pub fn aggregate_throughput(&self, single_unit: &SimReport) -> f64 {
        let first = single_unit.throughput_ops_per_s;
        if self.units == 1 {
            first
        } else {
            first * (1.0 + self.scaling_efficiency * (self.units as f64 - 1.0))
        }
    }

    /// Total silicon area of the group in mm².
    pub fn total_area_mm2(&self) -> f64 {
        TableI::paper().total_area_mm2() * self.units as f64
    }

    /// Energy per attention operation in joules (identical to a single unit — scaling
    /// out does not change per-operation energy).
    pub fn energy_per_op_j(&self, single_unit: &SimReport) -> f64 {
        let model = EnergyModel::new(self.config);
        1.0 / model.ops_per_joule(single_unit)
    }

    /// The smallest number of units whose aggregate throughput reaches
    /// `target_ops_per_s`, given one unit's report. Returns `None` if even 1024 units
    /// would not suffice (a guard against nonsensical targets).
    pub fn units_to_reach(
        config: A3Config,
        single_unit: &SimReport,
        target_ops_per_s: f64,
    ) -> Option<usize> {
        for units in 1..=1024 {
            let group = MultiUnit::new(units, config);
            if group.aggregate_throughput(single_unit) >= target_ops_per_s {
                return Some(units);
            }
        }
        None
    }

    /// Drain cycles when the units serve *independent* queries (every unit holds the
    /// whole memory, queries distributed round-robin) — the execution the analytic
    /// formula approximates. Each unit drains its own pipelined batch; the group
    /// finishes with the slowest unit.
    pub fn independent_queries_drain(&self, costs: &[QueryCost]) -> u64 {
        (0..self.units)
            .map(|unit| {
                let share: Vec<QueryCost> = costs
                    .iter()
                    .skip(unit)
                    .step_by(self.units)
                    .copied()
                    .collect();
                Drain::new(&[share], 0).total_cycles()
            })
            .max()
            .unwrap_or(0)
    }

    /// Measured speedup of [`MultiUnit::independent_queries_drain`] over a single
    /// unit draining the same costs — what the analytic
    /// [`MultiUnit::aggregate_throughput`] multiplier approximates.
    pub fn independent_queries_speedup(&self, costs: &[QueryCost]) -> f64 {
        let single = MultiUnit::new(1, self.config).independent_queries_drain(costs);
        let multi = self.independent_queries_drain(costs);
        single as f64 / multi.max(1) as f64
    }

    /// Executes one batch of queries against a memory **sharded row-wise across the
    /// group's units** and models its cycles:
    ///
    /// 1. The memory splits into `units` shards, each prepared independently through
    ///    `cache` (per-shard fingerprints: a warm cache pays zero preprocessing, a
    ///    partially mutated memory re-prepares only the touched shards).
    /// 2. Every query runs on every shard unit in parallel; per-shard cycle costs
    ///    come from the backend's own work profile over *that shard's* rows (the
    ///    approximate datapath resolves `M` against the shard size, so the candidate
    ///    search work genuinely divides).
    /// 3. A query's partials meet at the serial cross-shard merge unit
    ///    ([`merge_query_cycles`]); the batch completes when the last merge drains.
    ///
    /// With one unit this degenerates to the single-unit batch model (no merge stage,
    /// same cycles as [`PipelineModel::run_batch_with`]).
    ///
    /// The synthesized `n_max` applies **per shard**, not to the logical memory:
    /// sharding is exactly how a group serves a memory no single unit could hold
    /// (e.g. 640 rows across 4 units of `n_max = 320`).
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty, any *shard* does not fit the synthesized
    /// configuration, or shapes are inconsistent.
    pub fn run_sharded_batch(
        &self,
        backend: &dyn ComputeBackend,
        cache: &mut MemoryCache,
        keys: &Matrix,
        values: &Matrix,
        queries: &[Vec<f32>],
    ) -> ShardedSimReport {
        assert!(!queries.is_empty(), "at least one query is required");
        let model = PipelineModel::new(self.config);
        let plan = ShardPlan::new(self.units).expect("units >= 1");
        // Each unit holds one shard, so the synthesized size bounds the shard, not
        // the logical memory (fail before the preprocessing runs).
        for range in plan.ranges(keys.rows()) {
            self.config.assert_fits(range.len(), keys.dim());
        }
        let (sharded, stats) = ShardedMemory::prepare_cached(backend, plan, cache, keys, values)
            .expect("caller-provided shapes must be consistent");
        let shards = sharded.shard_count();
        let d = keys.dim();
        let mq_cycles = merge_query_cycles(shards, d);

        // Per-shard, per-query costs from the backend's own work profiles.
        let per_shard_costs: Vec<Vec<QueryCost>> = sharded
            .shards()
            .iter()
            .map(|shard| model.batch_costs(backend, shard.memory(), queries))
            .collect();

        // Every shard unit drains its column in parallel; the serial merge unit takes
        // each query once the slowest shard has emitted it.
        let drain = Drain::new(&per_shard_costs, mq_cycles);
        let queries = queries.len() as u64;
        let report = SimReport {
            preprocessing_cycles: model.preprocessing_cycles_for_ops(stats.missed_preprocess_ops),
            cache_hits: stats.hits,
            cache_misses: stats.misses,
            shards: shards as u64,
            merge_cycles: queries * mq_cycles,
            activity: ModuleActivity {
                merge_ops: queries * merge_query_ops(shards, d),
                ..drain.activity
            },
            ..drain.report(&self.config)
        };
        let slowest_shard_cycles = *drain.unit_cycles.iter().max().expect("at least one shard");
        ShardedSimReport {
            per_shard_cycles: drain.unit_cycles,
            slowest_shard_cycles,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineModel;
    use a3_core::backend::{ApproximateBackend, QuantizedBackend};

    fn single_report(config: A3Config) -> SimReport {
        let model = PipelineModel::new(config);
        let cost = model.base_query_cost(320);
        model.aggregate(&vec![cost; 8])
    }

    fn skewed_memory(n: usize, d: usize) -> (Matrix, Matrix, Vec<Vec<f32>>) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| {
                        if i % 17 == 3 {
                            0.8
                        } else {
                            -0.1 + 0.02 * ((i * 7 + j * 3) % 9) as f32
                        }
                    })
                    .collect()
            })
            .collect();
        let keys = Matrix::from_rows(rows).unwrap();
        let values = keys.clone();
        let queries: Vec<Vec<f32>> = (0..8).map(|q| vec![0.3 + 0.01 * q as f32; d]).collect();
        (keys, values, queries)
    }

    #[test]
    fn throughput_scales_nearly_linearly() {
        let cfg = A3Config::paper_base();
        let report = single_report(cfg);
        let one = MultiUnit::new(1, cfg).aggregate_throughput(&report);
        let four = MultiUnit::new(4, cfg).aggregate_throughput(&report);
        assert!(four > 3.8 * one);
        assert!(four < 4.0 * one + 1.0);
    }

    #[test]
    fn area_and_power_scale_linearly() {
        let cfg = A3Config::paper_base();
        let g = MultiUnit::new(7, cfg);
        assert!((g.total_area_mm2() - 7.0 * 2.082).abs() < 0.1);
    }

    #[test]
    fn energy_per_op_independent_of_unit_count() {
        let cfg = A3Config::paper_base();
        let report = single_report(cfg);
        let one = MultiUnit::new(1, cfg).energy_per_op_j(&report);
        let eight = MultiUnit::new(8, cfg).energy_per_op_j(&report);
        assert!((one - eight).abs() < 1e-15);
    }

    #[test]
    fn units_to_reach_finds_minimum() {
        let cfg = A3Config::paper_base();
        let report = single_report(cfg);
        let single = report.throughput_ops_per_s;
        assert_eq!(
            MultiUnit::units_to_reach(cfg, &report, single * 0.5),
            Some(1)
        );
        let needed = MultiUnit::units_to_reach(cfg, &report, single * 5.0).unwrap();
        assert!((5..=6).contains(&needed));
        assert_eq!(MultiUnit::units_to_reach(cfg, &report, single * 1e6), None);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_panics() {
        let _ = MultiUnit::new(0, A3Config::paper_base());
    }

    #[test]
    fn merge_cost_is_zero_for_one_shard_and_sublinear_in_k() {
        assert_eq!(merge_query_cycles(1, 64), 0);
        assert!(merge_query_cycles(2, 64) > 0);
        for k in [2usize, 4, 8, 16] {
            assert!(
                merge_query_cycles(2 * k, 64) < 2 * merge_query_cycles(k, 64),
                "merge cost must grow sublinearly in the shard count (k = {k})"
            );
        }
    }

    #[test]
    fn one_unit_sharded_run_matches_the_single_unit_batch_model() {
        let (keys, values, queries) = skewed_memory(120, 64);
        let backend = QuantizedBackend::paper();
        let group = MultiUnit::new(1, A3Config::paper_base());
        let mut cache = MemoryCache::new(4);
        let sharded = group.run_sharded_batch(&backend, &mut cache, &keys, &values, &queries);
        let model = PipelineModel::new(A3Config::paper_base());
        let mut cache = MemoryCache::new(4);
        let single = model.run_batch_with(&backend, &mut cache, &keys, &values, &queries);
        assert_eq!(sharded.report.total_cycles, single.total_cycles);
        assert_eq!(
            sharded.report.preprocessing_cycles,
            single.preprocessing_cycles
        );
        assert_eq!(sharded.report.merge_cycles, 0);
        assert_eq!(sharded.report.shards, 1);
        assert_eq!(sharded.merge_overhead(), 0.0);
    }

    #[test]
    fn sharding_a_large_memory_beats_a_single_unit_end_to_end() {
        let (keys, values, queries) = skewed_memory(320, 64);
        for (backend, config) in [
            (
                Box::new(QuantizedBackend::paper()) as Box<dyn ComputeBackend>,
                A3Config::paper_base(),
            ),
            (
                Box::new(ApproximateBackend::conservative()),
                A3Config::paper_conservative(),
            ),
        ] {
            let mut cache = MemoryCache::new(16);
            let single = MultiUnit::new(1, config).run_sharded_batch(
                backend.as_ref(),
                &mut cache,
                &keys,
                &values,
                &queries,
            );
            for k in [2usize, 4, 8] {
                let mut cache = MemoryCache::new(16);
                let sharded = MultiUnit::new(k, config).run_sharded_batch(
                    backend.as_ref(),
                    &mut cache,
                    &keys,
                    &values,
                    &queries,
                );
                assert_eq!(sharded.report.shards, k as u64);
                assert!(sharded.report.merge_cycles > 0);
                assert!(
                    sharded.end_to_end_cycles() < single.end_to_end_cycles(),
                    "{}: {k} shards ({}) must beat one unit ({})",
                    backend.name(),
                    sharded.end_to_end_cycles(),
                    single.end_to_end_cycles()
                );
                assert!(sharded.merge_overhead() > 0.0);
                // Eight 40-row shards still win end to end, but the merge
                // is most of their total.
                if k <= 4 {
                    assert!(sharded.merge_overhead() < 0.5);
                }
                assert!(sharded.slowest_shard_cycles < single.report.total_cycles);
            }
        }
    }

    #[test]
    fn sharding_serves_a_memory_too_large_for_one_unit() {
        // 640 rows cannot fit one n_max = 320 unit, but four 160-row shards can —
        // the case memory sharding exists for.
        let (keys, values, queries) = skewed_memory(640, 64);
        let backend = QuantizedBackend::paper();
        let group = MultiUnit::new(4, A3Config::paper_base());
        let mut cache = MemoryCache::new(8);
        let report = group.run_sharded_batch(&backend, &mut cache, &keys, &values, &queries);
        assert_eq!(report.report.shards, 4);
        assert_eq!(report.report.queries, queries.len());
        assert!(report.report.merge_cycles > 0);
    }

    #[test]
    #[should_panic(expected = "n_max")]
    fn an_oversized_shard_still_fails_the_fit_check() {
        let (keys, values, queries) = skewed_memory(640, 64);
        let group = MultiUnit::new(1, A3Config::paper_base());
        let mut cache = MemoryCache::new(2);
        group.run_sharded_batch(
            &QuantizedBackend::paper(),
            &mut cache,
            &keys,
            &values,
            &queries,
        );
    }

    #[test]
    #[should_panic(expected = "no approximation stage")]
    fn a_base_group_rejects_approximate_work() {
        let (keys, values, queries) = skewed_memory(128, 64);
        let group = MultiUnit::new(2, A3Config::paper_base());
        let mut cache = MemoryCache::new(4);
        group.run_sharded_batch(
            &ApproximateBackend::conservative(),
            &mut cache,
            &keys,
            &values,
            &queries,
        );
    }

    #[test]
    fn warm_cache_sharded_run_pays_zero_preprocessing_per_shard() {
        let (keys, values, queries) = skewed_memory(128, 64);
        let backend = ApproximateBackend::conservative();
        let group = MultiUnit::new(4, A3Config::paper_conservative());
        let mut cache = MemoryCache::new(16);
        let cold = group.run_sharded_batch(&backend, &mut cache, &keys, &values, &queries);
        assert_eq!(cold.report.cache_misses, 4);
        assert!(cold.report.preprocessing_cycles > 0);
        let warm = group.run_sharded_batch(&backend, &mut cache, &keys, &values, &queries);
        assert_eq!(warm.report.cache_hits, 4);
        assert_eq!(warm.report.preprocessing_cycles, 0);
        assert_eq!(warm.report.total_cycles, cold.report.total_cycles);

        // Mutating one shard's rows re-prepares only that shard.
        let mut mutated = keys.clone();
        mutated.row_mut(40)[0] += 1.0; // shard 1 of 4 over 128 rows (rows 32..64)
        let partial = group.run_sharded_batch(&backend, &mut cache, &mutated, &values, &queries);
        assert_eq!(
            (partial.report.cache_hits, partial.report.cache_misses),
            (3, 1)
        );
    }

    #[test]
    fn merge_energy_is_charged_only_for_sharded_runs() {
        let (keys, values, queries) = skewed_memory(160, 64);
        let backend = QuantizedBackend::paper();
        let cfg = A3Config::paper_base();
        let mut cache = MemoryCache::new(16);
        let single = MultiUnit::new(1, cfg)
            .run_sharded_batch(&backend, &mut cache, &keys, &values, &queries)
            .report;
        let mut cache = MemoryCache::new(16);
        let sharded = MultiUnit::new(4, cfg)
            .run_sharded_batch(&backend, &mut cache, &keys, &values, &queries)
            .report;
        let model = EnergyModel::new(cfg);
        assert_eq!(model.energy(&single).merge_j, 0.0);
        let breakdown = model.energy(&sharded);
        assert!(breakdown.merge_j > 0.0);
        let merge_fraction = breakdown
            .fractions()
            .iter()
            .find(|(name, _)| *name == "Cross-Shard Merge")
            .unwrap()
            .1;
        assert!(merge_fraction > 0.0 && merge_fraction < 0.2);
    }

    #[test]
    fn analytic_formula_agrees_with_sharded_execution_for_independent_queries() {
        // The 0.98-per-unit analytic formula models *independent* queries spread
        // across units. Cross-check it against actually distributing a long batch of
        // equal-cost queries: the measured drain speedup must agree within a few
        // percent (the formula's 2% per-unit discount covers the drain imbalance).
        let cfg = A3Config::paper_base();
        let model = PipelineModel::new(cfg);
        let costs = vec![model.base_query_cost(320); 512];
        for units in [2usize, 4, 8] {
            let group = MultiUnit::new(units, cfg);
            let measured = group.independent_queries_speedup(&costs);
            let analytic = 1.0 + group.scaling_efficiency * (units as f64 - 1.0);
            let relative = (measured - analytic).abs() / analytic;
            assert!(
                relative < 0.03,
                "units {units}: measured {measured:.3} vs analytic {analytic:.3} \
                 ({relative:.3} relative error)"
            );
        }
    }
}
