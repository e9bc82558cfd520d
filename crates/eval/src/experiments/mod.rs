//! One module per paper figure/table.

pub mod ablation;
pub mod accuracy;
pub mod backends;
pub mod fig3;
pub mod latency;
pub mod multi_tenant;
pub mod performance;
pub mod serving;
pub mod sharding;
pub mod streaming;
pub mod table1;

pub use ablation::ablation;
pub use backends::backend_comparison;
pub use fig3::fig3;
pub use latency::latency_model;
pub use multi_tenant::multi_tenant;
pub use serving::serving;
pub use sharding::sharding;
pub use streaming::streaming;
pub use table1::table1;

use a3_core::Matrix;
use a3_workloads::bert::BertLite;
use a3_workloads::kvmemn2n::KvMemN2N;
use a3_workloads::memn2n::MemN2N;
use a3_workloads::{Workload, WorkloadKind};

use crate::settings::EvalSettings;

/// Instantiates the three paper workloads with the configured seed, in figure order.
pub fn paper_workloads(settings: &EvalSettings) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(MemN2N::new(settings.seed)),
        Box::new(KvMemN2N::new(settings.seed)),
        Box::new(BertLite::new(settings.seed)),
    ]
}

/// The workload names in figure order.
pub fn workload_names() -> Vec<&'static str> {
    WorkloadKind::ALL.iter().map(|k| k.name()).collect()
}

/// Deterministic skewed memory of `n` rows of width `d`, shared by the sweeps and
/// the perf gate: a strongly relevant row every 23 (so every shard of a split holds
/// candidates), the rest weakly negative with hash noise. Values equal keys.
pub(crate) fn memory(n: usize, d: usize, seed: u64) -> (Matrix, Matrix) {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| {
                    let h = (i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(j as u64)
                        .wrapping_add(seed)
                        .wrapping_mul(0xD6E8_FEB8_6659_FD93);
                    let noise = ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
                    if i % 23 == 7 {
                        0.8 + 0.1 * noise
                    } else {
                        -0.15 + 0.2 * noise
                    }
                })
                .collect()
        })
        .collect();
    let keys = Matrix::from_rows(rows).expect("non-empty memory");
    let values = keys.clone();
    (keys, values)
}

/// `count` deterministic queries of width `d` for [`memory`].
pub(crate) fn batch_queries(count: usize, d: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|q| {
            (0..d)
                .map(|j| 0.3 + 0.02 * ((q * 5 + j) % 11) as f32)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_workloads_in_paper_order() {
        let w = paper_workloads(&EvalSettings::fast());
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].name(), "MemN2N");
        assert_eq!(w[1].name(), "KV-MemN2N");
        assert_eq!(w[2].name(), "BERT");
        assert_eq!(workload_names(), vec!["MemN2N", "KV-MemN2N", "BERT"]);
    }
}
