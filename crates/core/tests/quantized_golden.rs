//! Golden output bits of the quantized datapaths.
//!
//! The differential tests elsewhere compare the AVX2 and scalar quantized
//! datapaths with each other, so a change that moved both the same way would
//! pass them. This suite pins the absolute output: an FNV-1a hash over the
//! `f32` bit patterns of the scores, weights and output of every query, on
//! fixed seeded memories, for
//!
//! - [`QuantizedBackend::paper`] (AVX2 kernels where the host has them and the
//!   format plan is eligible),
//! - [`QuantizedBackend::paper_scalar`] (the raw-integer scalar datapath),
//! - and the `Q5.3` input format (dispatched like `paper`).
//!
//! The first two are bit-identical by contract, so they share one golden
//! value per shape. The shapes cover a paper-scale memory (300 x 64, full
//! 16/8-lane vectors), two non-lane-multiple memories (29 x 13, 37 x 13), a
//! short paper-width memory (20 x 64) and one whose `n = 600` lies outside the
//! range prover's grid (`ceil_log2(n) = 10`), so it runs scalar everywhere.
//!
//! A second table pins the same memories split into `K ∈ {2, 3, 4}` shards,
//! which adds the cross-shard log-sum-exp merge (`merge_partial_softmax`) to
//! the hashed path. Its normaliser runs four `f64` lanes on AVX2 hosts and
//! libm `exp` under `A3_FORCE_SCALAR`; both must reproduce these bits.

use a3_core::attention::AttentionResult;
use a3_core::backend::{ComputeBackend, QuantizedBackend, ShardPlan, ShardedMemory, SimdLevel};
use a3_core::quantized::QuantizedMemory;
use a3_core::Matrix;
use a3_fixed::QFormat;

mod common;
use common::{hash_results, Stream};

/// Queries attended per memory.
const QUERIES: usize = 4;

/// `(n, d, seed, golden hash of the Q4.4 datapaths, golden hash of Q5.3)`.
const GOLDEN: &[(usize, usize, u64, u64, u64)] = &[
    (300, 64, 11, 0x0797_1277_607d_f1be, 0x7bc4_3411_d887_4d3e),
    (29, 13, 12, 0x7291_b3b8_8dad_aedf, 0xc096_fecd_64f8_53ad),
    (37, 13, 13, 0xc932_32c0_b6cf_f816, 0xef26_7faa_50bd_060d),
    (20, 64, 14, 0x226a_6ed3_4c61_9f89, 0xbbea_caa5_c88d_fe12),
    (600, 64, 15, 0x8e62_9dcf_0dcf_d6cd, 0x6007_ff6c_6c87_6f41),
];

/// `(n, shards, golden hash of the Q4.4 datapaths, golden hash of Q5.3)` for
/// the [`GOLDEN`] memory with that `n`, attended through `attend_sharded`.
const SHARDED_GOLDEN: &[(usize, usize, u64, u64)] = &[
    (300, 2, 0x5041_314f_774c_f6b7, 0xbf35_ac6e_e2f6_6444),
    (300, 3, 0x6c77_94a6_cd3f_b90a, 0xcde2_f331_f714_0962),
    (300, 4, 0xf785_3419_bf76_d9bb, 0x2408_4499_1f53_94bc),
    (29, 2, 0x34a3_22bd_3175_d7e4, 0xe789_7224_600b_126c),
    (29, 3, 0x9481_6615_8529_50d3, 0xe6a5_87e2_4aa5_1c33),
    (29, 4, 0xe1ad_57bf_0d55_c490, 0xd76f_0c21_c3d1_8efa),
    (37, 2, 0x9cb1_b67e_d03d_036b, 0xed19_dd6f_1b17_82ae),
    (37, 3, 0x1700_f4d8_c0c3_f658, 0x1469_1285_7ca5_66a1),
    (37, 4, 0x8446_021a_871f_e238, 0xb256_280c_cabe_0dae),
    (20, 2, 0xf1f2_096c_b44b_9487, 0x4e9b_0e50_1df1_2cbc),
    (20, 3, 0x0654_7c61_3e01_0771, 0x2ac6_e6c2_0cb8_bc30),
    (20, 4, 0x601e_381e_f99b_a310, 0xc0aa_2aaa_985a_7a9d),
    (600, 2, 0x8d64_27c5_754b_63a4, 0xa152_9c9a_8ddb_bfa0),
    (600, 3, 0x9340_efcc_815e_6d00, 0x005e_e156_127c_8b70),
    (600, 4, 0x4964_1e05_f2da_3b13, 0x782d_b0a0_cdc6_c17f),
];

/// A seeded memory and its queries.
fn case(n: usize, d: usize, seed: u64) -> (Matrix, Matrix, Vec<Vec<f32>>) {
    let mut stream = Stream(seed);
    let keys = stream.matrix(n, d, 1.0);
    let values = stream.matrix(n, d, 1.0);
    let queries = (0..QUERIES).map(|_| stream.vector(d, 1.0)).collect();
    (keys, values, queries)
}

#[test]
fn quantized_outputs_match_golden_hashes() {
    let paper = QuantizedBackend::paper();
    let scalar = QuantizedBackend::paper_scalar();
    let q53 = QuantizedBackend::new(QFormat::new(5, 3));
    let mut mismatches = Vec::new();
    for &(n, d, seed, paper_golden, q53_golden) in GOLDEN {
        let (keys, values, queries) = case(n, d, seed);
        let runs = [
            ("paper", &paper, paper.prepare(&keys, &values), paper_golden),
            (
                "paper_scalar",
                &scalar,
                scalar.prepare(&keys, &values),
                paper_golden,
            ),
            ("Q5.3", &q53, q53.prepare(&keys, &values), q53_golden),
        ];
        for (datapath, backend, memory, golden) in runs {
            let memory = memory.unwrap();
            let results: Vec<AttentionResult> = queries
                .iter()
                .map(|q| backend.attend_prepared(&memory, q).unwrap())
                .collect();
            let hash = hash_results(&results);
            if hash != golden {
                mismatches.push(format!(
                    "{datapath} at {n}x{d} (seed {seed}): {hash:#018x}, golden {golden:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "quantized output bits drifted:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn sharded_quantized_outputs_match_golden_hashes() {
    let paper = QuantizedBackend::paper();
    let scalar = QuantizedBackend::paper_scalar();
    let q53 = QuantizedBackend::new(QFormat::new(5, 3));
    let mut mismatches = Vec::new();
    for &(n, shards, paper_golden, q53_golden) in SHARDED_GOLDEN {
        let &(_, d, seed, _, _) = GOLDEN.iter().find(|g| g.0 == n).unwrap();
        let (keys, values, queries) = case(n, d, seed);
        let plan = ShardPlan::new(shards).unwrap();
        let runs: [(&str, &QuantizedBackend, u64); 3] = [
            ("paper", &paper, paper_golden),
            ("paper_scalar", &scalar, paper_golden),
            ("Q5.3", &q53, q53_golden),
        ];
        for (datapath, backend, golden) in runs {
            let memory = ShardedMemory::prepare(backend, plan, &keys, &values).unwrap();
            assert_eq!(memory.shard_count(), shards);
            let results: Vec<AttentionResult> = queries
                .iter()
                .map(|q| backend.attend_sharded(&memory, q).unwrap())
                .collect();
            let hash = hash_results(&results);
            if hash != golden {
                mismatches.push(format!(
                    "{datapath} at {n}x{d} in {shards} shards (seed {seed}): {hash:#018x}, golden {golden:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "sharded quantized output bits drifted:\n{}",
        mismatches.join("\n")
    );
}

/// On an AVX2 host without `A3_FORCE_SCALAR`, every golden memory inside the
/// range prover's grid runs the vector datapath and the `n = 600` one (outside
/// the grid, though its lane gates hold) runs scalar.
#[test]
fn vector_dispatch_covers_exactly_the_in_grid_golden_memories() {
    if SimdLevel::detect() != SimdLevel::Avx2 {
        eprintln!("skipping: no AVX2 dispatch on this host");
        return;
    }
    for &(n, d, seed, _, _) in GOLDEN {
        let (keys, values, _) = case(n, d, seed);
        for format in [QFormat::new(4, 4), QFormat::new(5, 3)] {
            let memory = QuantizedMemory::prepare(format, &keys, &values).unwrap();
            assert_eq!(
                memory.is_vectorized(),
                n <= 512,
                "{format} at {n}x{d}: vectorized = {}",
                memory.is_vectorized()
            );
        }
    }
}
