//! Area, power and energy model (paper Section VI-D, Table I and Figure 15).
//!
//! The per-module area and power numbers come directly from Table I of the paper
//! (Synopsys DC synthesis at 1 GHz in TSMC 40 nm LP). The energy of a simulated run is
//! computed activity-based: each module burns its dynamic power while it is busy (its
//! busy cycles come from the pipeline model) and its static power for the whole run.

use serde::{Deserialize, Serialize};

use crate::config::A3Config;
use crate::pipeline::{ModuleActivity, SimReport};

/// Area and power characteristics of one hardware module (one row of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ModuleCharacteristics {
    /// Module name as it appears in Table I.
    pub name: &'static str,
    /// Area in mm².
    pub area_mm2: f64,
    /// Dynamic power when active, in milliwatts.
    pub dynamic_mw: f64,
    /// Static (leakage) power, in milliwatts.
    pub static_mw: f64,
}

/// The complete Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TableI {
    /// Dot-product module.
    pub dot_product: ModuleCharacteristics,
    /// Exponent-computation module.
    pub exponent: ModuleCharacteristics,
    /// Output-computation module.
    pub output: ModuleCharacteristics,
    /// Candidate-selection module (approximation support).
    pub candidate_selection: ModuleCharacteristics,
    /// Post-scoring selection module (approximation support).
    pub post_scoring: ModuleCharacteristics,
    /// Key-matrix SRAM (20 KB).
    pub key_sram: ModuleCharacteristics,
    /// Value-matrix SRAM (20 KB).
    pub value_sram: ModuleCharacteristics,
    /// Sorted-key-matrix SRAM (40 KB).
    pub sorted_key_sram: ModuleCharacteristics,
}

impl TableI {
    /// The published numbers (TSMC 40 nm, 1 GHz, n = 320, d = 64).
    pub fn paper() -> Self {
        Self {
            dot_product: ModuleCharacteristics {
                name: "Dot Product",
                area_mm2: 0.098,
                dynamic_mw: 14.338,
                static_mw: 1.265,
            },
            exponent: ModuleCharacteristics {
                name: "Exponent Computation",
                area_mm2: 0.016,
                dynamic_mw: 0.224,
                static_mw: 0.053,
            },
            output: ModuleCharacteristics {
                name: "Output Computation",
                area_mm2: 0.062,
                dynamic_mw: 50.918,
                static_mw: 0.070,
            },
            candidate_selection: ModuleCharacteristics {
                name: "Candidate Selection",
                area_mm2: 0.277,
                dynamic_mw: 19.48,
                static_mw: 5.08,
            },
            post_scoring: ModuleCharacteristics {
                name: "Post-Scoring Selection",
                area_mm2: 0.010,
                dynamic_mw: 2.055,
                static_mw: 0.147,
            },
            key_sram: ModuleCharacteristics {
                name: "Key Matrix (20KB)",
                area_mm2: 0.350,
                dynamic_mw: 2.901,
                static_mw: 0.987,
            },
            value_sram: ModuleCharacteristics {
                name: "Value Matrix (20KB)",
                area_mm2: 0.350,
                dynamic_mw: 2.901,
                static_mw: 0.987,
            },
            sorted_key_sram: ModuleCharacteristics {
                name: "Sorted Key Matrix (40KB)",
                area_mm2: 0.919,
                dynamic_mw: 6.100,
                static_mw: 2.913,
            },
        }
    }

    /// All modules as a slice, in Table I order.
    pub fn modules(&self) -> [ModuleCharacteristics; 8] {
        [
            self.dot_product,
            self.exponent,
            self.output,
            self.candidate_selection,
            self.post_scoring,
            self.key_sram,
            self.value_sram,
            self.sorted_key_sram,
        ]
    }

    /// Total area of one A3 unit in mm² (the paper reports 2.082 mm²).
    pub fn total_area_mm2(&self) -> f64 {
        self.modules().iter().map(|m| m.area_mm2).sum()
    }

    /// Total dynamic power with every module fully active, in milliwatts (the paper
    /// reports 98.92 mW).
    pub fn total_dynamic_mw(&self) -> f64 {
        self.modules().iter().map(|m| m.dynamic_mw).sum()
    }

    /// Total static power in milliwatts (the paper reports 11.502 mW).
    pub fn total_static_mw(&self) -> f64 {
        self.modules().iter().map(|m| m.static_mw).sum()
    }
}

impl Default for TableI {
    fn default() -> Self {
        Self::paper()
    }
}

/// Modeled characteristics of the cross-shard merge unit: per-shard normalizer
/// rescale (one exponent evaluation and multiply per shard) plus a 16-lane output
/// accumulator. **Not** part of the paper's Table I — the paper only scales out over
/// independent operations — so it is sized by analogy with the post-scoring module
/// (comparable datapath width) plus a small accumulator array. Its power is only
/// charged when a run actually merges (`merge_ops > 0`); unsharded runs model the
/// unit as power-gated.
pub fn merge_unit() -> ModuleCharacteristics {
    ModuleCharacteristics {
        name: "Cross-Shard Merge",
        area_mm2: 0.018,
        dynamic_mw: 3.2,
        static_mw: 0.21,
    }
}

/// Energy breakdown of a simulated run, using the same categories as Figure 15b.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Candidate-selection module energy (dynamic + static), joules.
    pub candidate_selection_j: f64,
    /// Dot-product module energy, joules.
    pub dot_product_j: f64,
    /// Exponent-computation + post-scoring-selection energy, joules.
    pub exponent_j: f64,
    /// Output-computation energy, joules.
    pub output_j: f64,
    /// SRAM (key + value + sorted-key) energy, joules.
    pub memory_j: f64,
    /// Cross-shard merge-unit energy, joules (0 for unsharded runs, where the unit is
    /// modeled as power-gated).
    pub merge_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.candidate_selection_j
            + self.dot_product_j
            + self.exponent_j
            + self.output_j
            + self.memory_j
            + self.merge_j
    }

    /// The components as `(label, fraction-of-total)` pairs, Figure 15b style (the
    /// cross-shard merge appended after the paper's five categories).
    pub fn fractions(&self) -> Vec<(&'static str, f64)> {
        let total = self.total_j().max(f64::MIN_POSITIVE);
        vec![
            ("Candidate Sel.", self.candidate_selection_j / total),
            ("Dot Product", self.dot_product_j / total),
            ("Exponent Comp. (w/ Post-Scoring)", self.exponent_j / total),
            ("Output Computation", self.output_j / total),
            ("Memory", self.memory_j / total),
            ("Cross-Shard Merge", self.merge_j / total),
        ]
    }
}

/// Activity-based energy model of one A3 unit.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    table: TableI,
    config: A3Config,
}

impl EnergyModel {
    /// Creates an energy model for a configuration using the paper's Table I numbers.
    pub fn new(config: A3Config) -> Self {
        Self {
            table: TableI::paper(),
            config,
        }
    }

    /// The Table I characteristics in use.
    pub fn table(&self) -> &TableI {
        &self.table
    }

    /// Energy of a simulated run: each module's dynamic power times its busy time plus
    /// every module's static power over the whole run.
    pub fn energy(&self, report: &SimReport) -> EnergyBreakdown {
        let period = self.config.clock_period_s();
        let total_s = report.total_cycles as f64 * period;
        let busy = |cycles: u64| cycles as f64 * period;
        let dyn_j = |m: &ModuleCharacteristics, busy_s: f64| m.dynamic_mw * 1e-3 * busy_s;
        let static_j = |m: &ModuleCharacteristics| m.static_mw * 1e-3 * total_s;
        let a: &ModuleActivity = &report.activity;

        let candidate = dyn_j(&self.table.candidate_selection, busy(a.candidate_cycles))
            + static_j(&self.table.candidate_selection);
        let dot = dyn_j(&self.table.dot_product, busy(a.dot_product_rows))
            + static_j(&self.table.dot_product);
        let exponent = dyn_j(&self.table.exponent, busy(a.exponent_rows))
            + static_j(&self.table.exponent)
            + dyn_j(&self.table.post_scoring, busy(a.post_scoring_cycles))
            + static_j(&self.table.post_scoring);
        let output = dyn_j(&self.table.output, busy(a.output_rows)) + static_j(&self.table.output);
        let memory = dyn_j(&self.table.key_sram, busy(a.key_sram_reads))
            + static_j(&self.table.key_sram)
            + dyn_j(&self.table.value_sram, busy(a.value_sram_reads))
            + static_j(&self.table.value_sram)
            + dyn_j(&self.table.sorted_key_sram, busy(a.sorted_key_reads))
            + static_j(&self.table.sorted_key_sram);
        // The merge unit only exists (draws power) in sharded deployments.
        let merge = if a.merge_ops == 0 {
            0.0
        } else {
            let unit = merge_unit();
            dyn_j(&unit, busy(a.merge_ops)) + static_j(&unit)
        };
        EnergyBreakdown {
            candidate_selection_j: candidate,
            dot_product_j: dot,
            exponent_j: exponent,
            output_j: output,
            memory_j: memory,
            merge_j: merge,
        }
    }

    /// Attention operations per joule for a simulated run (the Figure 15a metric).
    pub fn ops_per_joule(&self, report: &SimReport) -> f64 {
        report.queries as f64 / self.energy(report).total_j()
    }

    /// Average power draw during a run, in watts. The paper notes this is below the
    /// 110 mW peak because approximation leaves most modules idle most of the time.
    pub fn average_power_w(&self, report: &SimReport) -> f64 {
        let total_s = report.total_cycles as f64 * self.config.clock_period_s();
        self.energy(report).total_j() / total_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineModel;
    use a3_core::Matrix;

    fn report(config: A3Config, n: usize) -> SimReport {
        // Realistically skewed memory: a handful of rows strongly match the query, the
        // rest are mildly anti-correlated (the distribution attention workloads show).
        let model = PipelineModel::new(config);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..64)
                    .map(|j| {
                        if i % 40 == 3 {
                            0.7
                        } else {
                            -0.2 + 0.01 * ((i * 3 + j) % 7) as f32
                        }
                    })
                    .collect()
            })
            .collect();
        let keys = Matrix::from_rows(rows).unwrap();
        let values = keys.clone();
        let queries: Vec<Vec<f32>> = (0..16).map(|q| vec![0.4 + 0.001 * q as f32; 64]).collect();
        model.run_batch_with(
            model.backend().as_ref(),
            &mut a3_core::backend::MemoryCache::new(1),
            &keys,
            &values,
            &queries,
        )
    }

    #[test]
    fn table1_totals_match_paper() {
        let t = TableI::paper();
        assert!((t.total_area_mm2() - 2.082).abs() < 0.01);
        assert!((t.total_dynamic_mw() - 98.92).abs() < 0.1);
        assert!((t.total_static_mw() - 11.502).abs() < 0.01);
    }

    #[test]
    fn peak_power_is_under_111_mw() {
        let t = TableI::paper();
        assert!(t.total_dynamic_mw() + t.total_static_mw() < 111.0);
    }

    #[test]
    fn base_energy_dominated_by_output_module() {
        // Figure 15b: the base A3 spends most of its energy in the output-computation
        // module (large register structures, 50.9 mW dynamic).
        let model = EnergyModel::new(A3Config::paper_base());
        let breakdown = model.energy(&report(A3Config::paper_base(), 320));
        let fractions = breakdown.fractions();
        let output_fraction = fractions
            .iter()
            .find(|(name, _)| *name == "Output Computation")
            .unwrap()
            .1;
        assert!(
            fractions.iter().all(|(_, f)| *f <= output_fraction),
            "output module should dominate: {fractions:?}"
        );
    }

    #[test]
    fn approximate_energy_dominated_by_candidate_selection() {
        // Figure 15b: with approximation, the candidate-selection module dominates
        // because the other modules process only a handful of rows.
        let cfg = A3Config::paper_aggressive();
        let model = EnergyModel::new(cfg);
        let breakdown = model.energy(&report(cfg, 320));
        let fractions = breakdown.fractions();
        let candidate_fraction = fractions[0].1;
        let output_fraction = fractions[3].1;
        assert!(
            candidate_fraction > output_fraction,
            "candidate selection should dominate: {fractions:?}"
        );
    }

    #[test]
    fn approximation_reduces_energy_per_op() {
        let base_cfg = A3Config::paper_base();
        let aggr_cfg = A3Config::paper_aggressive();
        let base = EnergyModel::new(base_cfg).ops_per_joule(&report(base_cfg, 320));
        let aggr = EnergyModel::new(aggr_cfg).ops_per_joule(&report(aggr_cfg, 320));
        assert!(aggr > base, "aggressive {aggr} ops/J vs base {base} ops/J");
    }

    #[test]
    fn average_power_below_peak() {
        let cfg = A3Config::paper_base();
        let model = EnergyModel::new(cfg);
        let p = model.average_power_w(&report(cfg, 320));
        assert!(p > 0.0 && p < 0.111, "average power {p} W");
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let cfg = A3Config::paper_conservative();
        let model = EnergyModel::new(cfg);
        let fractions = model.energy(&report(cfg, 320)).fractions();
        let sum: f64 = fractions.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
