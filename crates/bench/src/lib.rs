//! Shared helpers for the A3 Criterion benchmark harness.
//!
//! Each bench target regenerates the measurement behind one of the paper's tables or
//! figures (the `a3-eval` crate docs map every figure and table to its experiment
//! driver):
//!
//! | bench target | paper content |
//! |--------------|---------------|
//! | `attention_fraction` | Figure 3 — cost of the attention mechanism itself |
//! | `candidate_selection` | Figure 11 — greedy candidate search (naive vs efficient, across `M`) |
//! | `post_scoring` | Figure 12 — post-scoring selection |
//! | `pipeline_throughput` | Figure 14 — base vs approximate pipeline cycles across workload sizes |
//! | `batched_serving` | Section IV-C — batch size × {cold, warm} preprocessing cache on the serving layer |
//! | `dense_baseline` | Figures 14/15 — the conventional dense attention the baselines run |
//! | `exp_lut` | Section III-A Module 2 — lookup-table exponent vs `exp()` |
//! | `energy_model` | Figure 15 / Table I — activity-based energy accounting |

use a3_core::Matrix;

/// Builds a deterministic, realistically *skewed* key/value memory: a few rows
/// strongly match the query, the rest are mild distractors. This is the score
/// distribution attention workloads exhibit and the one the approximation exploits.
pub fn skewed_memory(n: usize, d: usize, seed: u64) -> (Matrix, Matrix, Vec<f32>) {
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
                    if i % 37 == 5 {
                        0.8 + 0.1 * noise
                    } else {
                        -0.15 + 0.2 * noise
                    }
                })
                .collect()
        })
        .collect();
    let keys = Matrix::from_rows(rows).expect("non-empty");
    let values = keys.clone();
    let query = (0..d).map(|j| 0.4 + 0.01 * (j % 7) as f32).collect();
    (keys, values, query)
}

/// The paper's three workload sizes: (name, typical n).
pub const WORKLOAD_SIZES: [(&str, usize); 3] = [("MemN2N", 20), ("KV-MemN2N", 186), ("BERT", 320)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_memory_shapes_and_determinism() {
        let (k, v, q) = skewed_memory(64, 16, 1);
        assert_eq!(k.rows(), 64);
        assert_eq!(v.rows(), 64);
        assert_eq!(q.len(), 16);
        let (k2, _, _) = skewed_memory(64, 16, 1);
        assert_eq!(k, k2);
    }
}
