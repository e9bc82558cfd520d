//! Streaming memories: incremental prepare vs rebuild-per-append.
//!
//! Decode-style serving grows the attended context by a handful of rows between
//! queries (a chat turn, a live knowledge-base edit). Before incremental
//! prepare, every appended row invalidated the memory's fingerprint and re-ran
//! the entire O(n·d) preprocessing; the incremental path maintains the prepared
//! state in O(Δ·d)-ish work instead. This experiment quantifies that win on the
//! cycle-level simulator:
//!
//! * **decode replay** — a 1-token-per-query decode loop through
//!   [`PipelineModel::run_streaming_decode`]: the initial full prepare, the
//!   summed incremental-prepare cycles (charged distinctly in
//!   [`a3_sim::SimReport`]), and what the same replay would cost if every
//!   append re-ran the full prepare;
//! * **append-rate sweep** — appends arriving in chunks of 1 to 8 rows between
//!   queries, per backend and starting memory size: amortized
//!   maintenance cycles per appended token against the rebuild-per-chunk
//!   baseline, and the appends that fell back to a full re-prepare. Every
//!   built-in backend reports zero: the quantized backend re-checks its
//!   format gates (or converts to its scalar datapath) when `n` crosses a
//!   power of two instead of re-preparing.

use a3_core::backend::{ComputeBackend, MemoryCache};
use a3_core::Matrix;
use a3_sim::{A3Config, PipelineModel};

use super::{batch_queries, memory};
use crate::report::{fmt_ratio, Table};
use crate::settings::EvalSettings;

/// Starting memory sizes (rows). Growth stays within the synthesized
/// `n_max = 320` of the paper configurations.
pub const START_SIZES: [usize; 2] = [64, 240];

/// Rows appended per chunk in the append-rate sweep.
pub const APPEND_RATES: [usize; 4] = [1, 2, 4, 8];

const D: usize = 64;

/// The simulated configurations swept: the quantized base pipeline and both
/// approximate schemes (the config picks the backend datapath).
fn lineup() -> Vec<(&'static str, A3Config)> {
    vec![
        ("Quantized (Q4.4 LUT)", A3Config::paper_base()),
        ("Approximate (conservative)", A3Config::paper_conservative()),
        ("Approximate (aggressive)", A3Config::paper_aggressive()),
    ]
}

/// Splits `(keys, values)` generated for `n0 + grown` rows into the starting
/// memory and the appended tail.
fn split(n0: usize, grown: usize, seed: u64) -> (Matrix, Matrix, Matrix, Matrix) {
    let (keys, values) = memory(n0 + grown, D, seed);
    let take = |m: &Matrix, range: std::ops::Range<usize>| {
        Matrix::from_rows(range.map(|r| m.row(r).to_vec()).collect()).expect("non-empty range")
    };
    (
        take(&keys, 0..n0),
        take(&values, 0..n0),
        take(&keys, n0..n0 + grown),
        take(&values, n0..n0 + grown),
    )
}

/// Cycles a rebuild-per-append server would spend on preprocessing for the same
/// growth trace: a full prepare of the grown memory after every chunk.
fn rebuild_cycles(
    model: &PipelineModel,
    backend: &dyn ComputeBackend,
    base_keys: &Matrix,
    base_values: &Matrix,
    new_keys: &Matrix,
    new_values: &Matrix,
    rate: usize,
) -> u64 {
    let mut rows: Vec<Vec<f32>> = (0..base_keys.rows())
        .map(|r| base_keys.row(r).to_vec())
        .collect();
    let mut value_rows: Vec<Vec<f32>> = (0..base_values.rows())
        .map(|r| base_values.row(r).to_vec())
        .collect();
    let mut total = 0u64;
    for chunk_start in (0..new_keys.rows()).step_by(rate) {
        let chunk_end = (chunk_start + rate).min(new_keys.rows());
        for r in chunk_start..chunk_end {
            rows.push(new_keys.row(r).to_vec());
            value_rows.push(new_values.row(r).to_vec());
        }
        let keys = Matrix::from_rows(rows.clone()).expect("non-empty memory");
        let values = Matrix::from_rows(value_rows.clone()).expect("non-empty memory");
        let prepared = backend.prepare(&keys, &values).expect("valid shapes");
        total += model.preprocessing_cycles_for_ops(prepared.preprocess_ops());
    }
    total
}

/// Runs the streaming sweep: the decode replay and the append-rate tables.
pub fn streaming(settings: &EvalSettings) -> Vec<Table> {
    let grown = (settings.cases_per_workload * 2).clamp(8, 48);

    let mut decode = Table::new(
        "Streaming decode: incremental prepare vs rebuild-per-token (cycles)",
        &[
            "Backend",
            "Start n",
            "Tokens",
            "Initial prepare (cyc)",
            "Incremental (cyc)",
            "Rebuild-per-token (cyc)",
            "Maintenance ratio",
            "Warm follow-up",
        ],
    );
    let mut rates = Table::new(
        "Streaming appends: amortized maintenance per token by append rate",
        &[
            "Backend",
            "Start n",
            "Rate (rows/chunk)",
            "Incremental cyc/token",
            "Rebuild cyc/token",
            "Maintenance ratio",
            "Full re-prepares",
        ],
    );

    for (name, config) in &lineup() {
        let model = PipelineModel::new(*config);
        let backend = model.backend();
        for &n0 in &START_SIZES {
            let (base_keys, base_values, new_keys, new_values) = split(n0, grown, settings.seed);
            let qs = batch_queries(grown, D);

            // -- Decode replay: one appended token per query. -------------------
            let mut cache = MemoryCache::new(4);
            let report = model.run_streaming_decode(
                &mut cache,
                &base_keys,
                &base_values,
                &new_keys,
                &new_values,
                &qs,
            );
            let rebuild = rebuild_cycles(
                &model,
                backend.as_ref(),
                &base_keys,
                &base_values,
                &new_keys,
                &new_values,
                1,
            );
            // The grown memory's cache entry was maintained by delta
            // fingerprints, so a follow-up batch over the final memory hits.
            let (grown_keys, grown_values) = memory(n0 + grown, D, settings.seed);
            let warm = model.run_batch_with(
                backend.as_ref(),
                &mut cache,
                &grown_keys,
                &grown_values,
                &qs,
            );
            // Exclude the unavoidable initial prepare from the ratio: both the
            // incremental and the rebuild-per-token server pay it once.
            let initial = model.preprocessing_cycles_for_ops(
                backend
                    .prepare(&base_keys, &base_values)
                    .expect("valid shapes")
                    .preprocess_ops(),
            );
            let maintenance = report.incremental_prepare_cycles
                + report.preprocessing_cycles.saturating_sub(initial);
            decode.push_row(vec![
                (*name).to_owned(),
                format!("{n0}"),
                format!("{grown}"),
                format!("{}", report.preprocessing_cycles),
                format!("{}", report.incremental_prepare_cycles),
                format!("{rebuild}"),
                fmt_ratio(maintenance as f64 / rebuild as f64),
                if warm.cache_hits == 1 { "hit" } else { "miss" }.to_owned(),
            ]);

            // -- Append-rate sweep: chunked appends, no interleaved queries. ----
            for &rate in &APPEND_RATES {
                let mut prepared = backend
                    .prepare(&base_keys, &base_values)
                    .expect("valid shapes");
                let mut incremental = 0u64;
                let mut fallbacks = 0u64;
                for chunk_start in (0..new_keys.rows()).step_by(rate) {
                    let chunk_end = (chunk_start + rate).min(new_keys.rows());
                    let take = |m: &Matrix| {
                        Matrix::from_rows(
                            (chunk_start..chunk_end)
                                .map(|r| m.row(r).to_vec())
                                .collect(),
                        )
                        .expect("non-empty chunk")
                    };
                    let stats = backend
                        .append_rows(&mut prepared, &take(&new_keys), &take(&new_values))
                        .expect("valid shapes");
                    if stats.full_reprepare {
                        fallbacks += 1;
                        incremental += model.preprocessing_cycles_for_ops(stats.incremental_ops);
                    } else {
                        incremental +=
                            model.incremental_prepare_cycles_for_ops(stats.incremental_ops);
                    }
                }
                let rebuild = rebuild_cycles(
                    &model,
                    backend.as_ref(),
                    &base_keys,
                    &base_values,
                    &new_keys,
                    &new_values,
                    rate,
                );
                rates.push_row(vec![
                    (*name).to_owned(),
                    format!("{n0}"),
                    format!("{rate}"),
                    format!("{:.1}", incremental as f64 / grown as f64),
                    format!("{:.1}", rebuild as f64 / grown as f64),
                    fmt_ratio(incremental as f64 / rebuild as f64),
                    format!("{fallbacks}"),
                ]);
            }
        }
    }

    vec![decode, rates]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_tables_cover_every_combination() {
        let tables = streaming(&EvalSettings::fast());
        assert_eq!(tables.len(), 2);
        // 3 configs x 2 start sizes.
        assert_eq!(tables[0].len(), 3 * 2);
        // 3 configs x 2 start sizes x 4 append rates.
        assert_eq!(tables[1].len(), 3 * 2 * 4);
    }

    #[test]
    fn incremental_maintenance_beats_rebuild_per_append_everywhere() {
        let tables = streaming(&EvalSettings::fast());
        for (table, ratio_col) in [(&tables[0], 6), (&tables[1], 5)] {
            for row in 0..table.len() {
                let ratio: f64 = table
                    .cell(row, ratio_col)
                    .unwrap()
                    .trim_end_matches('x')
                    .parse()
                    .unwrap();
                assert!(
                    ratio < 1.0,
                    "row {row}: incremental maintenance must beat the rebuild (ratio {ratio})"
                );
            }
        }
    }

    #[test]
    fn decode_replay_keeps_the_cache_warm() {
        let tables = streaming(&EvalSettings::fast());
        for row in 0..tables[0].len() {
            assert_eq!(
                tables[0].cell(row, 7),
                Some("hit"),
                "row {row}: the grown memory's cache entry must stay current"
            );
        }
    }
}
