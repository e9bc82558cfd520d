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
//!
//! A second test pins [`select_candidates`] itself, one digest per family of
//! seeded cases: every field of each [`CandidateSelection`], greedy scores as
//! bit patterns. The digests were recorded from the heap-based selection that
//! the head-array scan replaced, so they pin its pop order, tie rule and
//! min-side skips, special values included.

use a3_core::approx::{
    select_candidates, ApproxConfig, CandidateSelection, MSpec, SortedKeyColumns, ThresholdSpec,
};
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

/// Golden digest of every [`CandidateSelection`] of each case family.
const SELECTION_GOLDEN: [(&str, u64); 5] = [
    ("uniform", 0xbe8d_e464_f62f_e635),
    ("special", 0x3f2c_ca22_6c2c_f419),
    ("ties", 0x9679_f7eb_4f3a_988b),
    ("ragged_d", 0x4130_c6a6_659d_f216),
    ("single_row", 0xd7dc_546b_501d_dc1d),
];

/// Bit patterns of special `f32` values: signed zeros, subnormals, infinities,
/// the extremes, and NaNs of both signs, among them the two whose `total_cmp`
/// keys are `i32::MAX` (`0x7FFF_FFFF`) and `i32::MIN` (`0xFFFF_FFFF`).
const SPECIAL: [u32; 16] = [
    0x0000_0000,
    0x8000_0000,
    0x0000_0001,
    0x8040_0000,
    0x7F80_0000,
    0xFF80_0000,
    0x7F7F_FFFF,
    0xFF7F_FFFF,
    0x3F80_0000,
    0xBF00_0000,
    0x7FC0_0000,
    0xFFC0_0000,
    0x7FFF_FFFF,
    0xFFFF_FFFF,
    0x7F80_0001,
    0xFF80_0001,
];

/// A few distinct values, so products tie within and across columns.
const TIES: [f32; 5] = [-1.0, -0.5, 0.0, 0.5, 1.0];

/// An index below `len` drawn from the stream.
fn pick(stream: &mut Stream, len: usize) -> usize {
    (((stream.next_f32() + 2.0) / 4.0 * len as f32) as usize).min(len - 1)
}

/// A special value (half the time) or a uniform draw; NaN only if `nan`.
fn special(stream: &mut Stream, nan: bool) -> f32 {
    if stream.next_f32() < 0.0 {
        return stream.next_f32();
    }
    loop {
        let x = f32::from_bits(SPECIAL[pick(stream, SPECIAL.len())]);
        if nan || !x.is_nan() {
            return x;
        }
    }
}

/// Keys and a query of one case family. In the special family NaN goes into
/// the keys or the query component of a column, never both: the sign of a
/// product of two NaNs is unspecified, and under `total_cmp` it decides the
/// pop order.
fn selection_case(family: &str, n: usize, d: usize, stream: &mut Stream) -> (Matrix, Vec<f32>) {
    let (keys, query) = match family {
        "special" | "single_row" => {
            let nan_in_query: Vec<bool> = (0..d).map(|_| stream.next_f32() < -1.0).collect();
            let query = nan_in_query.iter().map(|&q| special(stream, q)).collect();
            let keys = (0..n * d)
                .map(|i| special(stream, !nan_in_query[i % d]))
                .collect();
            (keys, query)
        }
        "ties" => {
            let mut draw = || TIES[pick(stream, TIES.len())];
            let keys = (0..n * d).map(|_| draw()).collect();
            (keys, (0..d).map(|_| draw()).collect())
        }
        _ => (stream.vector(n * d, 1.0), stream.vector(d, 1.0)),
    };
    (Matrix::from_flat(keys, n, d).unwrap(), query)
}

/// One line per selection: candidates, greedy-score bits, best row,
/// iterations and min-side skips.
fn selection_line(sel: &CandidateSelection) -> String {
    let bits: Vec<u32> = sel.greedy_scores.iter().map(|g| g.to_bits()).collect();
    format!(
        "{:?} {bits:x?} {} {} {}\n",
        sel.candidates, sel.best_row, sel.iterations, sel.min_ops_skipped
    )
}

#[test]
fn candidate_selections_match_golden_digests() {
    let shapes = |family: &str| -> Vec<(usize, usize)> {
        let (rows, dims): (&[usize], &[usize]) = match family {
            "uniform" => (&[2, 5, 33, 100, 320], &[1, 8, 64]),
            "special" | "ties" => (&[2, 3, 17, 64, 200], &[1, 4, 8, 16, 64]),
            "ragged_d" => (&[4, 37, 150], &[3, 5, 7, 9, 15, 17, 31, 63, 65]),
            _ => (&[1], &[1, 2, 3, 7, 8, 9, 16, 64]),
        };
        rows.iter()
            .flat_map(|&n| dims.iter().map(move |&d| (n, d)))
            .collect()
    };
    let mut mismatches = Vec::new();
    for (seed, (family, golden)) in (1..).zip(SELECTION_GOLDEN) {
        let mut text = String::new();
        for (n, d) in shapes(family) {
            let mut stream = Stream(seed << 32 | (n * 1000 + d) as u64);
            for _ in 0..QUERIES {
                let (keys, query) = selection_case(family, n, d, &mut stream);
                let sorted = SortedKeyColumns::preprocess(&keys);
                for m in [0, 1, n / 8, n / 2, n, n * d, n * d + 3] {
                    text.push_str(&selection_line(&select_candidates(&sorted, &query, m)));
                }
            }
        }
        let digest = hash_text(&text);
        if digest != golden {
            mismatches.push(format!("{family}: {digest:#018x}, golden {golden:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "candidate selections drifted:\n{}",
        mismatches.join("\n")
    );
}
