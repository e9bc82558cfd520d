//! Golden output bits of the [`SimdBackend`] datapath.
//!
//! `SimdBackend`'s AVX2 level reduces in its own order, so it is not
//! bit-identical to the scalar level; the property tests only bound the gap.
//! This suite pins the absolute output of both levels: an FNV-1a hash over the
//! `f32` bit patterns of the scores, weights and output of every query, over
//!
//! - a seeded shape grid: `n` in 1..=40, 63..=65, 127, 128, 200, 320 and 511
//!   (every `n mod 4` and `n mod 8` remainder, and long memories), `d` in
//!   1..=20, 31..=33, 47, 48, 63..=65, 96, 100, 128 and 129 (every `d mod 8`
//!   column tail, both sides of the 32- and 64-float column blocks), three
//!   seeds each. The third seed scales the memory by 6, so score spreads pass
//!   the polynomial `exp`'s clamp and the scalar level's weights underflow to
//!   zero;
//! - the 32 `babi_small` bAbI memories the serving benchmark registers (story
//!   length 5..=50, `d = 64`, seed 1), each with its question and two noisy
//!   variants.
//!
//! The AVX2 row runs only on hosts with AVX2 and FMA. Both rows must hold with
//! and without `A3_FORCE_SCALAR`, which only changes what `SimdBackend::new`
//! dispatches to.

use a3_core::attention::AttentionResult;
use a3_core::backend::{ComputeBackend, SimdBackend, SimdLevel};
use a3_core::Matrix;
use a3_workloads::babi::BabiGenerator;
use a3_workloads::memn2n::MemN2N;

mod common;
use common::{hash_results, Stream};

/// Memory row counts of the shape grid.
const GRID_N: &[usize] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
    27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 63, 64, 65, 127, 128, 200, 320, 511,
];

/// Embedding dimensions of the shape grid.
const GRID_D: &[usize] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 31, 32, 33, 47, 48, 63,
    64, 65, 96, 100, 128, 129,
];

/// Seeds of the shape grid; the last one is scaled by [`WIDE_SCALE`].
const GRID_SEEDS: [u64; 3] = [1, 2, 3];

/// Scale of the third seed's memories and queries.
const WIDE_SCALE: f32 = 6.0;

/// `(workload, golden hash at SimdLevel::Avx2, golden hash at SimdLevel::Scalar)`.
/// Grid rows are named by the range of `n` they cover (every `d`, every seed).
const GOLDEN: &[(&str, u64, u64)] = &[
    ("n 1-40", 0xa8e4_5eb8_eb7a_84f1, 0xa8be_ecca_87b2_5537),
    ("n 63-65", 0xd64d_8a52_276e_2c0b, 0x98da_285b_3dab_1440),
    ("n 127-128", 0x27cc_10d9_085d_5f54, 0x0e22_42f5_cde0_686a),
    ("n 200-511", 0x7dbd_f00d_e1de_a74b, 0x5f70_a390_946f_af86),
    ("babi_small", 0xe061_4a7a_2310_a3fd, 0xd845_eb3d_04aa_1664),
];

/// One memory and the queries attended over it.
struct Case {
    keys: Matrix,
    values: Matrix,
    queries: Vec<Vec<f32>>,
}

/// The grid cases whose `n` lies in `ns`, in (n, d, seed) order.
fn grid_cases(ns: impl Fn(usize) -> bool) -> Vec<Case> {
    let mut cases = Vec::new();
    for &n in GRID_N.iter().filter(|&&n| ns(n)) {
        for &d in GRID_D {
            for seed in GRID_SEEDS {
                let scale = if seed == 3 { WIDE_SCALE } else { 1.0 };
                let mut stream = Stream((n as u64) << 32 ^ (d as u64) << 8 ^ seed);
                cases.push(Case {
                    keys: stream.matrix(n, d, scale),
                    values: stream.matrix(n, d, scale),
                    queries: vec![stream.vector(d, scale)],
                });
            }
        }
    }
    cases
}

/// The `babi_small` memories: 32 stories of 5..=50 statements at `d = 64`.
fn babi_cases() -> Vec<Case> {
    let seed = 1;
    let generator = BabiGenerator::with_story_length(seed, 5, 50);
    let model = MemN2N::with_config(a3_core::PAPER_D, 3, generator.clone(), seed);
    generator
        .generate_many(32)
        .iter()
        .enumerate()
        .map(|(i, story)| {
            let case = model.attention_case(story);
            let mut queries = vec![case.query.clone()];
            for tag in 0..2 {
                let salt = (i as u64) << 8 | tag;
                queries.push(model.embedding().perturb(&case.query, 0.05, salt));
            }
            Case {
                keys: case.keys,
                values: case.values,
                queries,
            }
        })
        .collect()
}

/// The cases of one [`GOLDEN`] row.
fn cases(workload: &str) -> Vec<Case> {
    match workload {
        "n 1-40" => grid_cases(|n| n <= 40),
        "n 63-65" => grid_cases(|n| (63..=65).contains(&n)),
        "n 127-128" => grid_cases(|n| (127..=128).contains(&n)),
        "n 200-511" => grid_cases(|n| n >= 200),
        "babi_small" => babi_cases(),
        other => panic!("no cases for {other}"),
    }
}

/// Every query of every case through `backend`'s prepared path, hashed.
fn hash_backend(backend: &SimdBackend, cases: &[Case]) -> u64 {
    let results: Vec<AttentionResult> = cases
        .iter()
        .flat_map(|case| {
            let memory = backend.prepare(&case.keys, &case.values).unwrap();
            case.queries
                .iter()
                .map(|q| backend.attend_prepared(&memory, q).unwrap())
                .collect::<Vec<_>>()
        })
        .collect();
    hash_results(&results)
}

#[test]
fn simd_outputs_match_golden_hashes_at_both_levels() {
    let avx2 = SimdLevel::Avx2
        .available()
        .then(|| SimdBackend::with_level(SimdLevel::Avx2));
    if avx2.is_none() {
        eprintln!("skipping the AVX2 row: host has no AVX2 + FMA");
    }
    let scalar = SimdBackend::scalar();
    // Whatever `new` detects (AVX2, or scalar under `A3_FORCE_SCALAR`) must
    // reproduce its level's row.
    let detected = SimdBackend::new();
    let mut mismatches = Vec::new();
    for &(workload, avx2_golden, scalar_golden) in GOLDEN {
        let cases = cases(workload);
        let mut runs = vec![("scalar", &scalar, scalar_golden)];
        if let Some(avx2) = &avx2 {
            runs.push(("avx2", avx2, avx2_golden));
        }
        let detected_golden = match detected.level() {
            SimdLevel::Avx2 => avx2_golden,
            SimdLevel::Scalar => scalar_golden,
        };
        runs.push(("detected", &detected, detected_golden));
        for (level, backend, golden) in runs {
            let hash = hash_backend(backend, &cases);
            if hash != golden {
                mismatches.push(format!(
                    "{level} on {workload}: {hash:#018x}, golden {golden:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "SimdBackend output bits drifted:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn wide_seed_underflows_scalar_weights_to_zero() {
    // The scaled seed is what reaches the zero-weight skips of both levels'
    // weighted sums; keep it doing so.
    let zeros: usize = grid_cases(|n| n <= 40)
        .iter()
        .flat_map(|case| {
            case.queries.iter().map(|q| {
                let result = SimdBackend::scalar()
                    .attend(&case.keys, &case.values, q)
                    .unwrap();
                result.weights.iter().filter(|&&w| w == 0.0).count()
            })
        })
        .sum();
    assert!(zeros > 1000, "only {zeros} zero weights");
}
