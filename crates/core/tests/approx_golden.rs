//! Golden output bits of the approximate datapath.
//!
//! The other approximate tests bound the output's error or compare two paths
//! with each other, so a change that moved every output the same way would
//! pass them. This suite pins the absolute output of [`ApproximateBackend`]:
//!
//! - an FNV-1a hash over the `f32` bit patterns of the scores, weights and
//!   output of every whole-memory query (`attend_prepared`, which the one-shot
//!   `attend` must equal);
//! - the same hash over every sharded query (`attend_sharded` at
//!   `K ∈ {2, 3, 4}`), which unions the per-shard candidate sets;
//! - a hash over the `Debug` text of every query's `profile` (`M`, `C`, `K`
//!   and `n`), which the cycle-level simulator prices.
//!
//! The configurations are no approximation, the paper's conservative and
//! aggressive points, candidate selection alone, post-scoring alone and an
//! absolute `M`. The seeded memories have `n` from 1 to 320 and `d` of 1, 8
//! and 64, three queries each. Each shape comes at scale 1 and at scale 6,
//! where scores spread so far that most rows' weights underflow to exactly 0.

use a3_core::approx::{ApproxConfig, MSpec, ThresholdSpec};
use a3_core::attention::AttentionResult;
use a3_core::backend::{ApproximateBackend, ComputeBackend, ShardPlan, ShardedMemory};
use a3_core::Matrix;

mod common;
use common::{hash_results, hash_text, Stream};

/// Memory row counts.
const ROWS: [usize; 9] = [1, 2, 3, 7, 16, 33, 64, 100, 320];
/// Embedding dimensions.
const DIMS: [usize; 3] = [1, 8, 64];
/// Factors every key, value and query element is multiplied by.
const SCALES: [f32; 2] = [1.0, 6.0];
/// Queries attended per memory.
const QUERIES: usize = 3;
/// Shard counts of the sharded table.
const SHARDS: [usize; 3] = [2, 3, 4];

/// Golden hash of every whole-memory result.
const WHOLE_GOLDEN: u64 = 0xc26b_f1ba_e0f6_8f70;
/// Golden hash of every sharded result.
const SHARDED_GOLDEN: u64 = 0xd909_cfa8_de38_4207;
/// Golden hash of the `Debug` text of every profile.
const PROFILE_GOLDEN: u64 = 0x7248_a8db_751e_eeff;

fn configs() -> [ApproxConfig; 6] {
    [
        ApproxConfig::none(),
        ApproxConfig::conservative(),
        ApproxConfig::aggressive(),
        ApproxConfig::candidate_only(0.25),
        ApproxConfig::post_scoring_only(5.0),
        ApproxConfig {
            m: MSpec::Absolute(6),
            t: ThresholdSpec::Percent(2.5),
        },
    ]
}

/// Every seeded memory with its queries, in a fixed order.
fn cases() -> Vec<(Matrix, Matrix, Vec<Vec<f32>>)> {
    let mut cases = Vec::new();
    for n in ROWS {
        for d in DIMS {
            for scale in SCALES {
                let mut stream = Stream((n * 1000 + d * 10) as u64 + scale as u64);
                let keys = stream.matrix(n, d, scale);
                let values = stream.matrix(n, d, scale);
                let queries = (0..QUERIES).map(|_| stream.vector(d, scale)).collect();
                cases.push((keys, values, queries));
            }
        }
    }
    cases
}

#[test]
fn approximate_outputs_match_golden_hashes() {
    let mut whole: Vec<AttentionResult> = Vec::new();
    let mut sharded: Vec<AttentionResult> = Vec::new();
    let mut profiles = String::new();
    for (keys, values, queries) in cases() {
        for config in configs() {
            let backend = ApproximateBackend::new(config);
            let memory = backend.prepare(&keys, &values).unwrap();
            for query in &queries {
                let result = backend.attend_prepared(&memory, query).unwrap();
                assert_eq!(backend.attend(&keys, &values, query).unwrap(), result);
                whole.push(result);
                let profile = backend.profile(&memory, query).unwrap();
                profiles.push_str(&format!("{profile:?}\n"));
            }
            for shards in SHARDS {
                let plan = ShardPlan::new(shards).unwrap();
                let memory = ShardedMemory::prepare(&backend, plan, &keys, &values).unwrap();
                for query in &queries {
                    sharded.push(backend.attend_sharded(&memory, query).unwrap());
                }
            }
        }
    }
    let hashes = [
        ("whole", hash_results(&whole), WHOLE_GOLDEN),
        ("sharded", hash_results(&sharded), SHARDED_GOLDEN),
        ("profile", hash_text(&profiles), PROFILE_GOLDEN),
    ];
    let mismatches: Vec<String> = hashes
        .iter()
        .filter(|(_, hash, golden)| hash != golden)
        .map(|(name, hash, golden)| format!("{name}: {hash:#018x}, golden {golden:#018x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "approximate output bits drifted:\n{}",
        mismatches.join("\n")
    );
}
